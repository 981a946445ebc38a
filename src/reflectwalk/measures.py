"""Increment distributions in one and several dimensions.

A :class:`Measure1D` is either *lattice* (atoms on the integers, optionally
extended by an analytic tail for infinite-support families, above the table
or mirrored on both sides of it) or *continuous*
(a seeded sampler together with the tail function ``x -> mass((x, inf))``).
A :class:`JointMeasure` is a law on ``R^(r+s)`` given either by finite
support or as a product of one-dimensional factors.

Lattice laws used to drive reflected walks are normalized so that their
support has greatest common divisor 1 (see :func:`gcd_normalize`); heavier
machinery (moments with divergence detection, heavy-tailed samplers) lives
on the measure objects so every consumer sees one consistent law.

Probabilities are binary64 throughout; "exact" means within the stated
tolerances (1e-12 for finite atom tables, 1e-9 for prefix-plus-analytic-tail
families).

Bulk draws are made ``_BLOCK_DRAWS`` at a time (:func:`_fill`); a result of
more than one block is a mapping of its own (:func:`_empty`).
"""

from __future__ import annotations

import functools
import inspect
import math
import mmap
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .rng import make_rng

ATOM_SUM_TOL = 1e-12
TAILED_SUM_TOL = 1e-9
CENTRED_RTOL = 1e-12  # a law is centred when E(Y+) and E(Y-) agree to this, relative

# Dyadic-block divergence test (dyadic_series): a series is declared
# divergent when this many consecutive block ratios fail to drop below
# the decay threshold.
DIVERGENCE_BLOCKS = 20
DIVERGENCE_DECAY = 0.95
_TERMWISE_MAX = 1 << 12  # blocks up to this many points are summed term by term
_DIRECT_CONVOLVE = 64     # pmfs with a factor this short are convolved directly
_MAX_BLOCK_EXP = 64
# The one memory budget of every bulk draw, walk and atom-table pass: draws
# are made, walks stepped and atom tables walked in blocks of at most this many
# increments (or rows, or atoms), so that a call holds its result plus
# O(_BLOCK_DRAWS) temporaries at any size (_fill here, reflect_core._walk_blocks
# for the walkers; every chunk size derives from it).
_BLOCK_DRAWS = 1 << 15
# Gauss-Legendre rule of a series block (_gauss_legendre): the result comes
# from the finer rule and is kept where the coarser one agrees to this
# relative tolerance; a piece that disagrees is halved up to this many times.
_GL_FINE, _GL_COARSE = 20, 13
_GL_RTOL = 1e-14
_GL_HALVINGS = 10
_HALLEY_STEPS = 20  # cap on the Halley steps of _lambert_w_lower


class MeasureError(ValueError):
    """Raised for malformed measures or operations they do not support."""


def _drift_sign(eplus: float, eminus: float) -> int:
    """Sign of ``E(Y+) - E(Y-)``, 0 for a centred law: the package's one
    centring rule, ``|E(Y+) - E(Y-)| <= CENTRED_RTOL * max(1, E(Y+))``."""
    if math.isinf(eplus) and math.isinf(eminus):
        raise MeasureError("mean undefined: both tails have infinite mass")
    if math.isfinite(eplus) and abs(eplus - eminus) <= CENTRED_RTOL * max(1.0, eplus):
        return 0
    return -1 if eminus > eplus else 1


def _at_least(name: str, value, least: int = 1) -> int:
    """``value`` as an int; a size below ``least`` raises ``MeasureError``."""
    value = int(value)
    if value < least:
        raise MeasureError(f"{name} must be at least {least}, got {value}")
    return value


def _coords(name: str, value, d: int, dtype=float) -> np.ndarray:
    """``value`` as a ``(d,)`` array; any other length raises ``MeasureError``."""
    out = np.atleast_1d(np.asarray(value, dtype=dtype))
    if out.shape != (d,):
        raise MeasureError(f"{name} must have {d} coordinates, got shape {out.shape}")
    return out


# ---------------------------------------------------------------------------
# one-dimensional measures
# ---------------------------------------------------------------------------

def _empty(shape, dtype=float) -> np.ndarray:
    """An uninitialised array; one of more than ``_BLOCK_DRAWS`` rows is a
    private anonymous mapping of its own (where the OS offers one) instead of
    a block of the malloc heap.

    Freeing a mapped result returns its pages at once, so the results of
    successive bulk calls leave no holes in the heap for later allocations
    to land in, and peak memory does not depend on the heap's history.
    """
    if shape[0] <= _BLOCK_DRAWS or not hasattr(mmap, "MAP_PRIVATE"):
        return np.empty(shape, dtype)
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    pages = mmap.mmap(-1, count * dtype.itemsize, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(pages, dtype, count).reshape(shape)


def _fill(n: int, draw, out=None) -> np.ndarray:
    """``n`` rows made by ``draw(lo, hi)``, rows ``lo:hi``, ``_BLOCK_DRAWS`` at a time.

    Each block is written straight into ``out`` (allocated by :func:`_empty`
    after the first block's dtype and row shape when None; without ``out``,
    a single block is the result), so a call holds its result plus one
    block.  Blocks of ``rng.random`` draws form the same stream as one call.
    """
    if out is None and n <= _BLOCK_DRAWS:
        return draw(0, n)
    for lo in range(0, max(n, 1), _BLOCK_DRAWS):      # one block at least
        hi = min(lo + _BLOCK_DRAWS, n)
        block = draw(lo, hi)
        if out is None:
            out = _empty((n,) + block.shape[1:], block.dtype)
        out[lo:hi] = block
    return out


def _int_support(support) -> np.ndarray:
    """``support`` as int64, uncopied if it already is; non-integers raise."""
    raw = np.asarray(support)
    out = raw.astype(np.int64, copy=False)
    if out is not raw and np.any(out != raw):
        raise MeasureError(f"non-integer lattice atom {raw[out != raw][0]!r}")
    return out


class Measure1D:
    """A one-dimensional increment law.

    Construct via :meth:`lattice`, :meth:`lattice_tailed` or
    :meth:`continuous`.  Instances are immutable after construction
    and safe to share across threads; all sampling goes through an explicit
    generator owned by the caller.
    """

    def __init__(self, kind, support=None, probs=None, tail_fn=None,
                 pmf_fn=None, tail_sampler=None, sampler=None, bounds=None,
                 normalized=False, symmetric=None, name=None, meta=None):
        self.kind = kind                    # "lattice" | "continuous"
        self.support = support              # sorted int64 array (lattice)
        self.probs = probs                  # float64 array matching support
        self._tail_fn = tail_fn             # analytic x -> mass((x, inf))
        self._pmf_fn = pmf_fn               # analytic pmf beyond the table
        self._tail_sampler = tail_sampler   # conditional sampler beyond table
        self._sampler = sampler             # full sampler (continuous)
        self.bounds = bounds                # (lo, hi) hints, may be +-inf
        self.normalized = normalized
        self._symmetric = symmetric
        self.name = name
        self.meta = dict(meta or {})
        if kind == "lattice":
            # mass strictly above support[i], excluding the analytic tail: the
            # running sum of probs from the top, written straight into place
            self._suffix = np.empty(len(probs))
            np.cumsum(probs[:0:-1], out=self._suffix[-2::-1])
            self._suffix[len(probs) - 1:] = 0.0
        else:
            self._suffix = None
        self._validate()

    # -- constructors -------------------------------------------------------

    @classmethod
    def lattice(cls, atoms, name=None) -> "Measure1D":
        """Finite lattice law from ``{point: prob}`` or ``[(point, prob)]``.

        Repeated points merge; a non-integer point raises ``MeasureError``.
        """
        items = atoms.items() if isinstance(atoms, dict) else atoms
        merged: dict[int, float] = {}
        for x, p in sorted((x, float(p)) for x, p in items):
            if x != int(x):          # checked before any float array can round x
                raise MeasureError(f"non-integer lattice atom {x!r}")
            merged[int(x)] = merged.get(int(x), 0.0) + p
        return cls.lattice_arrays(list(merged), list(merged.values()), name=name)

    @classmethod
    def lattice_arrays(cls, support, probs, name=None) -> "Measure1D":
        """Finite lattice law from parallel arrays (fast path for big supports)."""
        support = _int_support(support)
        probs = np.asarray(probs, dtype=float)
        order = np.argsort(support)
        support, probs = support[order], probs[order]
        if len(np.unique(support)) != len(support):
            raise MeasureError("duplicate support points")
        keep = ~(probs <= 0.0)         # a NaN stays, for _validate to refuse
        support, probs = support[keep], probs[keep]
        if len(support) == 0:
            raise MeasureError("empty support")
        return cls("lattice", support=support, probs=probs,
                   normalized=bool(np.gcd.reduce(np.abs(support)) == 1), name=name)

    @classmethod
    def lattice_tailed(cls, support, probs, tail_fn, pmf_fn=None,
                       tail_sampler=None, symmetric=False, name=None,
                       meta=None) -> "Measure1D":
        """Infinite-support lattice family: exact prefix atoms plus analytic tail.

        ``support`` must be strictly increasing integers (an int64 array is
        kept, not copied); ``tail_fn(x)`` must return the mass strictly above
        ``x`` for every ``x >= support[-1]`` and agree with the implicit prefix
        mass: ``probs.sum() + tail_fn(support[-1]) == 1`` within 1e-9.
        ``tail_sampler(rng, n)`` draws ``n`` values beyond the table.

        A ``symmetric`` law has a table mirrored about 0 and the same tail
        mirrored below it: the mass below ``-x`` is ``tail_fn(x)``, the
        prefix check is ``probs.sum() + 2 tail_fn(support[-1]) == 1``, and
        ``tail_sampler`` draws signed values beyond either end.

        Past the table, ``tail_fn`` and ``pmf_fn`` must be smooth: analytic
        on ``x > 0`` with no jump or kink, as power and log-power tails are.
        Sums of them over blocks beyond the table go through
        :func:`_series_block_sum`, whose Gauss-Legendre check cannot see a
        jump or kink within about 0.8% of a piece end (a piece spans at most
        a factor 2): such a summand is summed silently and wrongly, off by
        up to about twenty terms.  Tabulate any such point instead.
        """
        support = _int_support(support)
        if not np.all(support[1:] > support[:-1]):
            raise MeasureError("lattice_tailed support must be strictly increasing")
        probs = np.asarray(probs, dtype=float)
        return cls("lattice", support=support, probs=probs, tail_fn=tail_fn,
                   pmf_fn=pmf_fn, tail_sampler=tail_sampler, normalized=True,
                   symmetric=True if symmetric else None, name=name, meta=meta)

    @classmethod
    def continuous(cls, sampler, tail, bounds=None, symmetric=None, name=None,
                   meta=None) -> "Measure1D":
        """Continuous law given by a seeded sampler and its tail function."""
        return cls("continuous", sampler=sampler, tail_fn=tail, bounds=bounds,
                   symmetric=symmetric, name=name, meta=meta)

    # -- validation ---------------------------------------------------------

    def _validate(self):
        if self.kind not in ("lattice", "continuous"):
            raise MeasureError(f"unknown kind {self.kind!r}")
        if self.kind == "lattice":
            if len(self.support) == 0:
                raise MeasureError("empty support")
            if not np.all(self.probs >= 0):
                raise MeasureError("atom probabilities must be nonnegative numbers")
            total = float(self.probs.sum())
            if self._tail_fn is None:
                if not abs(total - 1.0) <= ATOM_SUM_TOL:
                    raise MeasureError(f"atom probabilities sum to {total}, not 1")
            else:
                tail_mass = float(self._tail_fn(int(self.support[-1])))
                if self._mirrored:
                    if not (np.array_equal(self.support, -self.support[::-1])
                            and np.array_equal(self.probs, self.probs[::-1])):
                        raise MeasureError("a symmetric tailed law needs a table "
                                           "mirrored about 0")
                    tail_mass *= 2.0
                if not abs(total + tail_mass - 1.0) <= TAILED_SUM_TOL:
                    raise MeasureError(
                        f"prefix mass {total} + analytic tail {tail_mass} != 1")
        if self.kind == "continuous" and (self._sampler is None or self._tail_fn is None):
            raise MeasureError("continuous measure needs sampler and tail")

    # -- basic queries ------------------------------------------------------

    @property
    def is_lattice(self) -> bool:
        return self.kind == "lattice"

    @property
    def has_analytic_tail(self) -> bool:
        return self.is_lattice and self._tail_fn is not None

    @property
    def _mirrored(self) -> bool:
        """Whether the analytic tail also stands, mirrored, below the table."""
        return self.has_analytic_tail and bool(self._symmetric)

    def atoms_dict(self) -> dict[int, float]:
        if not self.is_lattice:
            raise MeasureError("measure has no atom table")
        return {int(x): float(p) for x, p in zip(self.support, self.probs)}

    def min_support(self) -> float:
        if self.is_lattice:
            return -math.inf if self._mirrored else float(self.support[0])
        if self.bounds is not None:
            return float(self.bounds[0])
        return -math.inf

    def max_support(self) -> float:
        if self.is_lattice and not self.has_analytic_tail:
            return float(self.support[-1])
        if self.kind == "continuous" and self.bounds is not None:
            return float(self.bounds[1])
        return math.inf

    def prob(self, x) -> float:
        """Atom mass at integer ``x`` (lattice only)."""
        if not self.is_lattice:
            raise MeasureError("atom lookup needs an atom table")
        i = np.searchsorted(self.support, int(x))
        if i < len(self.support) and self.support[i] == int(x):
            return float(self.probs[i])
        far = abs(x) if self._mirrored else x
        if self.has_analytic_tail and far > self.support[-1] and self._pmf_fn is not None:
            return float(self._pmf_fn(np.array([far]))[0])
        return 0.0

    def tail(self, x) -> float:
        """Mass strictly above ``x``."""
        if self.kind == "continuous":
            return float(self._tail_fn(x))
        if self._mirrored and x < self.support[0]:     # P(Y > x) = 1 - P(Y >= -x)
            return 1.0 - self.tail(-math.floor(x) - 1)
        if self.has_analytic_tail and x >= self.support[-1]:
            return float(self._tail_fn(x))
        i = np.searchsorted(self.support, x, side="right")
        base = float(self._suffix[i - 1]) if i >= 1 else float(self.probs.sum())
        extra = float(self._tail_fn(int(self.support[-1]))) if self.has_analytic_tail else 0.0
        return base + extra

    def is_symmetric(self) -> bool:
        """Invariance under ``y -> -y`` (exact for atom tables, declared otherwise)."""
        if self._symmetric is not None:
            return bool(self._symmetric)
        if self.is_lattice and not self.has_analytic_tail:
            d = self.atoms_dict()
            return all(abs(p - d.get(-x, 0.0)) <= ATOM_SUM_TOL for x, p in d.items())
        return False

    def is_nontrivial_positive(self) -> bool:
        """Whether the law puts positive mass on ``(0, inf)``."""
        return self.tail(0) > 0.0

    # -- sampling -----------------------------------------------------------

    def sample(self, rng, size=None):
        """Draw from the law using ``rng`` (a ``numpy.random.Generator``).

        Draws are made in blocks of ``_BLOCK_DRAWS`` (:func:`_fill`), a
        sampler called once per block.  An analytic-tail law draws and
        inverts its uniforms block by block, then draws every tail value in
        one tail sampler call, in position order; blocks of uniforms form one
        stream, so its stream is that of one block at any size.
        """
        rng = make_rng(rng)
        n = 1 if size is None else int(np.prod(size))
        if self._sampler is not None:
            out = _fill(n, lambda lo, hi: self._sampler(rng, hi - lo))
        elif self.has_analytic_tail:
            last, tail_at = len(self.support) - 1, []

            def invert(lo, hi):
                u = rng.random(hi - lo)
                tail_at.append(lo + np.flatnonzero(u >= self._table.cdf[-1]))
                return self.support[np.minimum(self._table.search(u), last)]
            out = _fill(n, invert)
            tail_at = np.concatenate(tail_at)
            if tail_at.size:
                if self._tail_sampler is None:
                    raise MeasureError("analytic-tail family lacks a tail sampler")
                out[tail_at] = self._tail_sampler(rng, tail_at.size)
        else:
            out = _fill(n, lambda lo, hi: self.support[self._table.draw(rng, hi - lo)])
        if size is None:
            return out[0].item()
        return out.reshape(size)

    @functools.cached_property
    def _table(self) -> GuideTable:              # built on the first draw
        return GuideTable(np.cumsum(self.probs))

    # -- moments ------------------------------------------------------------

    def mean(self) -> float:
        """Signed first moment.

        A symmetric law that declares its tail exponent ``e``
        (``meta["tail_exponent"]``: ``P(|Y| > x)`` of order ``x^-e``) has mean
        0 where ``e > 1`` and none elsewhere, decided in closed form: the
        dyadic test cannot tell ``e = 1 + 2e-9`` from 1.
        """
        if self._symmetric and "tail_exponent" in self.meta:
            if self.meta["tail_exponent"] <= 1.0:
                raise MeasureError(f"{self.name} declares no mean: E|Y| is infinite")
            return 0.0
        pos, neg = self.moment(1.0, "positive"), self.moment(1.0, "negative")
        if math.isinf(pos) and math.isinf(neg):
            raise MeasureError("mean undefined: both tails have infinite mass")
        return pos - neg

    def drift_sign(self) -> int:
        """-1, 0 or 1 as the drift is down, centred or up (:func:`_drift_sign`);
        a law whose mean is decided in closed form (:meth:`mean`) is centred
        or raises."""
        if self._symmetric and "tail_exponent" in self.meta:
            return int(self.mean())
        return _drift_sign(self.moment(1.0, "positive"), self.moment(1.0, "negative"))

    def moment(self, p: float, part: str = "full") -> float:
        """``E|Y|^p``, ``E (Y^+)^p`` or ``E (Y^-)^p``; ``inf`` when divergent.

        The atom table's part is ``sum |x|^p p(x)``, formed in place
        ``_BLOCK_DRAWS`` atoms at a time (so a long table costs
        ``O(_BLOCK_DRAWS)`` temporaries) and added by numpy's pairwise sum per
        chunk, not by ``np.dot``: a threaded BLAS may run a ``ddot`` over a
        long table on its thread pool and take milliseconds for microseconds
        of work.  Divergence on infinite-support families is decided by the
        dyadic-block test: the series is declared divergent when the block
        sums over ``[2^m, 2^(m+1))`` fail to decay geometrically (ratio above
        ``DIVERGENCE_DECAY``) for ``DIVERGENCE_BLOCKS`` consecutive blocks;
        each block beyond the table is one :func:`_series_block_sum`.  With a
        declared ``meta["tail_exponent"] = e`` the moment is ``inf`` exactly
        for ``p >= e``, and below ``e`` a divergent verdict raises.
        """
        if p < 0:
            raise MeasureError("moment order must be nonnegative")
        if part not in ("full", "positive", "negative"):
            raise MeasureError(f"unknown moment part {part!r}")
        if self.kind == "continuous":
            return self._moment_continuous(p, part)
        finite_part = 0.0
        for k in range(0, len(self.support), _BLOCK_DRAWS):
            vals = self.support[k:k + _BLOCK_DRAWS].astype(float)
            if part == "negative":
                np.negative(vals, out=vals)
            if part == "full":
                np.abs(vals, out=vals)
            else:
                np.maximum(vals, 0.0, out=vals)
            vals **= p
            vals *= self.probs[k:k + _BLOCK_DRAWS]
            finite_part += float(vals.sum())
        if not self.has_analytic_tail or (part == "negative" and not self._mirrored):
            return finite_part
        e = self.meta.get("tail_exponent")
        if e is not None and p >= e:
            return math.inf
        tail = self._tail_block_series(p)
        if e is not None and math.isinf(tail):
            raise MeasureError(f"moment {p} reads as divergent below tail exponent {e}")
        return finite_part + (2.0 * tail if part == "full" and self._mirrored else tail)

    def _tail_block_series(self, p: float) -> float:
        """Sum (or detect divergence of) ``sum x^p pmf(x)`` beyond the table."""
        if self._pmf_fn is None:
            raise MeasureError("analytic-tail family lacks a pmf function")
        start = int(self.support[-1]) + 1
        # [start, 2^m), [2^m, 2^(m+1)), ... up to 2^_MAX_BLOCK_EXP, with 2^m > start
        edges = [start] + [1 << e for e in range(max(start, 1).bit_length(),
                                                 _MAX_BLOCK_EXP + 1)]
        _, total, _ = dyadic_series(
            _series_block_sum(lambda x: x ** p * self._pmf_fn(x), lo, hi)
            for lo, hi in zip(edges[:-1], edges[1:]))
        return total

    def tail_block_sums(self, edges, power: int):
        """Yield ``sum_{x=e_j}^{e_(j+1)-1} tail(x)**power`` for consecutive ``edges``.

        Every lattice block is an exact sum, formed lazily, one block per
        ``next``.  The tail is constant between atoms, so a block's table part
        is ``sum width * value**power`` over the pieces between its edges and
        the atoms inside it: the piece from the lower edge to the first atom,
        then one piece per atom, the last cut at the upper edge.  The atoms
        are walked in steps of ``_BLOCK_DRAWS``, so no pass allocates more
        than ``O(_BLOCK_DRAWS)`` however long the table; the result can differ
        from one sum over the whole block in the last bits.  Beyond the table
        of an analytic-tail family a block goes through :func:`_series_block_sum`
        (a checked Gauss-Legendre rule, no ``quad``) only when the caller asks
        for it.  For a continuous law a block is the integral of
        ``tail(x)**power`` over ``[e_j, e_(j+1)]``, with the support ends as
        ``quad`` breakpoints, because such a tail may have kinks inside a
        block.
        """
        if self.kind == "continuous":
            from scipy import integrate
            ends = (self.min_support(), self.max_support())
            for lo, hi in zip(edges[:-1], edges[1:]):
                val, _ = integrate.quad(lambda x: self.tail(x) ** power, lo, hi,
                                        points=ends, limit=200)
                yield float(val)
            return
        if self._mirrored and edges[0] < self.support[0]:
            raise MeasureError("tail block sums below the table of a two-sided "
                               "tailed law are not available")
        top = int(self.support[-1])
        extra = float(self._tail_fn(top)) if self.has_analytic_tail else 0.0
        mass = float(self.probs.sum())
        for lo, hi in zip(edges[:-1], edges[1:]):
            total = self._table_block_sum(min(int(lo), top), min(int(hi), top),
                                          power, extra, mass)
            if self.has_analytic_tail and hi > top:
                total += _series_block_sum(lambda x: self._tail_fn(x) ** power,
                                           max(int(lo), top), int(hi))
            yield total

    def _table_block_sum(self, a: int, b: int, power: int, extra: float,
                         mass: float) -> float:
        """``sum_{x=a}^{b-1} tail(x)**power`` for ``a <= b <= support[-1]``.

        The tail is ``_suffix[k] + extra`` on ``[s[k], s[k+1])`` and
        ``mass + extra`` below ``s[0]``.
        """
        s, suffix = self.support, self._suffix
        ia = int(np.searchsorted(s, a, side="right"))    # s[ia:ib] lie in (a, b)
        ib = int(np.searchsorted(s, b, side="left"))
        lead = (float(suffix[ia - 1]) if ia > 0 else mass) + extra
        total = ((int(s[ia]) if ia < ib else b) - a) * lead ** power
        for k in range(ia, ib, _BLOCK_DRAWS):
            k1 = min(k + _BLOCK_DRAWS, ib)
            width = np.diff(s[k:k1 + 1] if k1 < ib else np.append(s[k:ib], b))
            level = suffix[k:k1] + extra
            level **= power
            level *= width
            total += float(level.sum())
        return total

    def _moment_continuous(self, p: float, part: str) -> float:
        """``E (Y^+)^p = int p x^(p-1) P(Y > x) dx``, and likewise for ``Y^-``."""
        from scipy import integrate
        lo = self.min_support()
        hi = self.max_support()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise MeasureError("continuous moments need finite support bounds")
        if p == 0:
            return 1.0

        def side(tail, ends):       # E (+-Y)^p from tail(x) = P(+-Y > x)
            if max(ends) <= 0:
                return 0.0
            return integrate.quad(lambda x: p * x ** (p - 1) * tail(x), 0.0, max(ends),
                                  points=ends, limit=200)[0]

        val = 0.0 if part == "negative" else side(self.tail, (lo, hi))
        if part != "positive":
            val += side(lambda x: max(0.0, 1.0 - self.tail(-x)), (-hi, -lo))
        return float(val)

    def __repr__(self):
        if self.name:
            return f"Measure1D({self.name})"
        if self.is_lattice and len(self.support) <= 6 and not self.has_analytic_tail:
            return "Measure1D({%s})" % ", ".join(
                f"{int(x)}: {p:g}" for x, p in zip(self.support, self.probs))
        return f"Measure1D(kind={self.kind})"


def _series_block_sum(g, lo: int, hi: int) -> float:
    """``sum_{x=lo}^{hi-1} g(x)`` for a smooth ``g`` mapping float arrays to arrays.

    Short blocks, and any part below ``_TERMWISE_MAX``, are summed term by
    term; the rest by Euler-Maclaurin: the integral (:func:`_gauss_legendre`,
    checked to ``_GL_RTOL``) plus ``(g(lo) - g(hi))/2 + (g'(hi) - g'(lo))/12``,
    ``g'`` by central differences.  With ``lo >= _TERMWISE_MAX`` the first
    omitted term is of relative order ``lo**-4`` for the power-like tails
    summed here.
    """
    if hi - lo <= _TERMWISE_MAX:
        return float(np.sum(g(np.arange(lo, hi, dtype=float))))
    if lo < _TERMWISE_MAX:
        return (_series_block_sum(g, lo, _TERMWISE_MAX)
                + _series_block_sum(g, _TERMWISE_MAX, hi))
    at_lo, at_hi, lo_minus, lo_plus, hi_minus, hi_plus = g(np.array(
        [lo, hi, lo - 0.5, lo + 0.5, hi - 0.5, hi + 0.5], dtype=float))
    slope_change = (hi_plus - hi_minus) - (lo_plus - lo_minus)
    return float(_gauss_legendre(g, lo, hi) + (at_lo - at_hi) / 2.0 + slope_change / 12.0)


@functools.cache
def _gauss_legendre_rules():
    """Nodes of the fine and then the coarse rule on ``[-1, 1]``; their weights."""
    from numpy.polynomial.legendre import leggauss
    (fine_x, fine_w), (coarse_x, coarse_w) = leggauss(_GL_FINE), leggauss(_GL_COARSE)
    return np.concatenate([fine_x, coarse_x]), fine_w, coarse_w


def _gauss_legendre(g, lo: float, hi: float) -> float:
    """``integral_lo^hi g`` for ``0 < lo < hi`` by a checked Gauss-Legendre rule.

    ``[lo, hi]`` is cut into pieces whose end ratio is at most 2.  On such a
    piece a tail that is analytic away from ``x <= 0`` is integrated by the
    ``_GL_FINE``-point rule to rounding (the error falls like ``5.8^(-2n)``
    for a branch point at ``x = 0``).  Each piece is checked against the
    ``_GL_COARSE``-point rule on the same piece; a piece where the two differ
    by more than ``_GL_RTOL`` relative is halved, at most ``_GL_HALVINGS``
    times, after which ``MeasureError`` is raised.  The check sees only what
    the nodes see: the coarse rule has odd order, so a piece's centre is a
    node, but a jump between a piece end and both rules' outer nodes passes.
    Every level is one ``g`` call on all its pieces' nodes, and the weighted
    sums avoid BLAS.
    """
    nodes, fine_w, coarse_w = _gauss_legendre_rules()
    pieces = max(1, math.ceil(math.log2(hi / lo)))
    ends = float(lo) * (hi / lo) ** (np.arange(pieces + 1) / pieces)   # geometric
    ends[-1] = hi
    a, b = ends[:-1], ends[1:]
    total = 0.0
    for _ in range(_GL_HALVINGS + 1):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        vals = g((mid[:, None] + half[:, None] * nodes).ravel()).reshape(len(a), -1)
        fine = half * (vals[:, :_GL_FINE] * fine_w).sum(axis=1)
        coarse = half * (vals[:, _GL_FINE:] * coarse_w).sum(axis=1)
        ok = np.abs(fine - coarse) <= _GL_RTOL * np.abs(fine)
        total += float(fine[ok].sum())
        if ok.all():
            return total
        a, mid, b = a[~ok], mid[~ok], b[~ok]
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    raise MeasureError(f"Gauss-Legendre rule on [{lo}, {hi}] does not settle to "
                       f"{_GL_RTOL:g} after {_GL_HALVINGS} halvings; the summand "
                       "is not smooth there")


def dyadic_series(blocks, stop=None):
    """``(verdict, total, run)`` of a nonnegative series read block by block.

    ``run`` counts the trailing block ratios above ``DIVERGENCE_DECAY``.  The
    verdict is ``"fails"`` (total ``inf``) once ``run`` reaches
    ``DIVERGENCE_BLOCKS``; ``"holds"`` once a block is below 1e-16 of the
    total or ``stop(j, block, total, run)`` holds after block ``j``; else
    ``"undecided"`` when the blocks run out.
    """
    total, prev, run = 0.0, 0.0, 0
    for j, b in enumerate(blocks):
        if prev > 0:
            run = run + 1 if b / prev > DIVERGENCE_DECAY else 0
            if run >= DIVERGENCE_BLOCKS:
                return "fails", math.inf, run
        total += b
        if b < 1e-16 * max(total, 1e-300) or (stop is not None and stop(j, b, total, run)):
            return "holds", total, run
        prev = b
    return "undecided", total, run


# ---------------------------------------------------------------------------
# spec operations on one-dimensional measures
# ---------------------------------------------------------------------------

def gcd_normalize(m: Measure1D) -> tuple[Measure1D, int]:
    """Divide a lattice law's support by its gcd.

    Returns the normalized measure (flagged ``normalized``) together with the
    factor that was divided out.  Rejects empty or ``{0}`` supports.
    """
    if not m.is_lattice:
        raise MeasureError("gcd_normalize needs a lattice law with an atom table")
    if m.has_analytic_tail:
        return m, 1  # tailed families are built normalized
    g = int(np.gcd.reduce(np.abs(m.support)))
    if g == 0:
        raise MeasureError("degenerate support {0}")
    if g == 1:
        return m, 1          # every constructor flags gcd-1 laws normalized
    return Measure1D.lattice_arrays(m.support // g, m.probs, name=m.name), g


class GuideTable:
    """``np.searchsorted(cdfs[row], u, side="right")`` over one cdf or a stack
    of them: the package's one cdf inversion.

    One cdf of up to ``SHORT`` entries is searched by a count of the entries
    at or below ``u``.  Otherwise each row is searched through Chen and Asau's
    guide table (Devroye, *Non-Uniform Random Variate Generation*, 1986,
    section III.2.4): the row's ``[cdf[0], cdf[-1]]`` is cut into
    ``len(cdf)`` equal buckets, and bucket ``b`` stores the number of
    entries whose own bucket lies below ``b``.  The bucket map is monotone in
    floating point too, so every such entry is below every ``u`` in bucket
    ``b``: the stored count is a lower bound of the answer, whatever the
    rounding.  A search takes one step forward from it, and the values still
    short of their answer (buckets holding several entries) fall back to
    ``np.searchsorted`` on their row, so the result equals it bit for bit for
    every ``u``.  The rows lie end to end in one array, each followed by an
    infinite sentinel that stops every step, and a search addresses its row
    by index: the cdf values are never offset, which would cost their low
    bits.  :meth:`append` stacks more rows after the last; the rows held
    keep their index and their guide.  Each cdf is any nondecreasing array.
    """

    SHORT = 16

    def __init__(self, *cdfs):
        self._flat, self._keys = np.empty(0), np.empty(0, dtype=complex)
        self._guide = self._starts = self._tops = np.empty(0, dtype=np.intp)
        self.append(*cdfs)

    @property
    def cdfs(self) -> list:
        return [self._flat[s:e + 1] for s, e in zip(self._starts.tolist(), self._ends.tolist())]

    def append(self, *cdfs):
        """Stack ``cdfs`` after the rows held, as rows ``len(self.cdfs)`` on."""
        base, first = len(self._flat), len(self._starts)
        sizes = np.array([len(c) for c in cdfs])
        flat = np.concatenate([x for c in cdfs for x in (c, [np.inf])], dtype=float)
        self._flat = np.concatenate([self._flat, flat]) if base else flat
        self._starts = np.append(self._starts, base + np.cumsum(sizes + 1) - sizes - 1)
        self._tops = np.append(self._tops, sizes - 1)
        self.cdf = self._flat[:self._tops[0] + 1]
        self._short = len(self._starts) == 1 and self._tops[0] < self.SHORT
        # row r's buckets are the slots of its entries, ``start + b``: the map
        # u -> start + (u - cdf[0]) len / span, clipped to the row
        self._ends = self._starts + self._tops
        firsts = self._flat[self._starts]
        self._lasts = self._flat[self._ends]
        span = self._lasts - firsts
        self._scales = (self._tops + 1) / np.where(span > 0, span, np.inf)
        self._bias = self._starts - firsts * self._scales
        slot_rows = np.repeat(np.arange(first, len(self._starts)), sizes + 1)
        # the guide at a bucket's slot: the slot of the first entry of the row
        # in that bucket or a later one, the exclusive running count of
        # entries per slot plus the row's index for the sentinels before it
        entries = np.flatnonzero(np.isfinite(flat))
        buckets = self._bucket(flat[entries], slot_rows[entries])
        buckets -= base
        slots = np.bincount(buckets, minlength=len(flat))
        guide = np.cumsum(slots)
        guide -= slots
        guide += slot_rows
        guide += base - first
        self._guide = np.concatenate([self._guide, guide]) if base else guide
        if len(self._starts) > 1:
            # a stack's fallback for a search by rows: each slot's (row,
            # value), which numpy orders as complex numbers, lexicographically
            # and exactly; slots not keyed before ``base`` are those of row 0,
            # the one row of a table appended to
            keys = np.empty(len(self._flat) - len(self._keys), dtype=complex)
            keys.real = np.concatenate([np.zeros(base - len(self._keys)), slot_rows])
            keys.imag = self._flat[len(self._keys):]
            self._keys = np.concatenate([self._keys, keys])

    def _bucket(self, u, rows):
        b = u * self._scales[rows]
        b += self._bias[rows]
        np.maximum(b, self._starts[rows], out=b)      # np.clip costs more per call
        np.minimum(b, self._ends[rows], out=b)
        return b.astype(np.intp)

    @staticmethod
    def _count(u, cdf) -> np.ndarray:
        idx = np.zeros(u.shape, dtype=np.uint8)     # intp out: callers add offsets
        for c in cdf.tolist():
            idx += (u >= c).view(np.uint8)
        return idx.astype(np.intp)

    def _slots(self, u, rows) -> np.ndarray:
        """The slot in the stacked array of each ``u``'s answer in its row."""
        i = self._guide[self._bucket(u, rows)]
        i += self._flat[i] <= u
        todo = np.flatnonzero(self._flat[i] <= u)
        if todo.size == 0:
            return i
        if len(self._starts) == 1:      # one row, whatever ``rows`` says
            rows = 0
        if np.ndim(rows) == 0:          # one row: its own cdf
            start = self._starts[rows]
            i[todo] = start + np.searchsorted(self._flat[start:self._ends[rows] + 1], u[todo],
                                              side="right")
        else:
            keys = np.empty(todo.size, dtype=complex)
            keys.real, keys.imag = rows[todo], u[todo]
            i[todo] = np.searchsorted(self._keys, keys, side="right")
        return i

    def search(self, u, rows=0) -> np.ndarray:
        """The position of each ``u`` in its row: ``rows`` is one row index or
        one per value."""
        u = np.asarray(u, dtype=float)
        if self._short:
            return self._count(u, self.cdf)
        return self._slots(u, rows) - self._starts[rows]

    def draw(self, rng, n: int, rows=0) -> np.ndarray:
        """``n`` indices by inversion in ``rows`` (one row index or one per
        draw), capped at the row's last one (``u`` may round up)."""
        u = rng.random(n)
        u *= self._lasts[rows]
        if self._short:
            return self._count(u, self.cdf[:-1])
        return np.minimum(self._slots(u, rows) - self._starts[rows], self._tops[rows])


def _convolve(a, b) -> np.ndarray:
    """``np.convolve(a, b)`` of two pmfs: directly when a factor has at most
    ``_DIRECT_CONVOLVE`` entries, which keeps exact zeros exact, else by a
    real FFT padded to a power of two (pocketfft is slow at awkward lengths)
    and clipped at 0, within about 1e-16 per atom."""
    if min(len(a), len(b)) <= _DIRECT_CONVOLVE:
        return np.convolve(a, b)
    n = len(a) + len(b) - 1
    size = 1 << (n - 1).bit_length()
    fa = np.fft.rfft(a, size)
    out = np.fft.irfft(fa * (fa if b is a else np.fft.rfft(b, size)), size)[:n]
    return np.maximum(out, 0.0, out=out)


def _stack_height(width: int) -> int:
    """``K``: the largest power of two whose sums of ``0 .. K - 1`` draws from a
    ``width``-entry pmf, ``(width - 1) K (K - 1) / 2 + K`` entries in all, fit
    in ``2 * _BLOCK_DRAWS``; 1 for a one-atom law, whose sums need no table."""
    k = 1
    while width > 1 and (width - 1) * k * (2 * k - 1) + 2 * k <= 2 * _BLOCK_DRAWS:
        k *= 2                                                     # rows of 2K fit
    return k


class LatticeSumSampler:
    """Sums of many i.i.d. draws from a lattice law: finite, or tailed with a
    tail sampler.

    The atom table is a pmf on ``lo + step * j``, ``step`` the gcd of the
    atoms' gaps (2 for the +-1 law), so no table stores the impossible sums
    between.  A sum of ``c`` draws from it is split at ``K``
    (:func:`_stack_height`: the largest power of two whose small-count rows
    fit in ``2 * _BLOCK_DRAWS`` cdf entries, 256 for the +-1 law, 4 for the
    4097 atoms of :func:`subordinated`).  One :class:`GuideTable` holds every
    law drawn: row ``k < K`` the law of a sum of ``k`` draws, the ``k``-th
    convolution power of the atom table (:func:`_convolve`), and row
    ``K + j`` level ``j``, the law of a sum of ``K 2^j`` draws: level 0 is
    the ``K``-th power, and level ``j`` the convolution square of level
    ``j - 1``, each trimmed at mass 1e-15 per side.  Levels are stacked on
    demand, up to the largest count asked for, so a sampler belongs to its
    caller rather than to the shared measure.  A sum of ``c`` draws is one
    draw from row ``c mod K``, none if that is 0, plus one from level ``j``
    for each set bit ``j`` of ``c // K``.  The (row, table row) pairs of a
    block, in that order and level by level, are searched in one draw of
    the table, up to ``_BLOCK_DRAWS`` pairs at a time; rows below ``K`` never
    enter the level loop.  A block whose rows share one count draws each of
    its table rows once for all of them, by one row index: the same stream,
    without a row index per draw.

    A tailed law leaves its table with probability ``q_tail``.  The draws of
    a row block, its rows end to end, hold their tail draws as one
    Bernoulli(``q_tail``) process: geometric gaps, mapped to rows by their
    row ends, so a row of ``c`` draws has ``Bin(c, q_tail)`` of them exactly.
    Those come from the law's tail sampler and the rest from the table,
    renormalised.  Every row first draws its whole count from the table and
    the rows with a tail draw then draw their ``c - Bin(c, q_tail)`` table
    draws afresh: the sums set aside depend on the tail positions alone, so
    the law is kept at any share of such rows, and the other rows keep one
    count where the block had one.  Rows are summed ``_BLOCK_DRAWS`` at a
    time (:func:`_fill`), and a row block's gaps and tail values
    ``_BLOCK_DRAWS`` at a time, so a call holds its result, the tables and
    ``O(_BLOCK_DRAWS)`` however many tail values it draws.
    """

    def __init__(self, m: Measure1D):
        if not (m.is_lattice and (not m.has_analytic_tail or m._tail_sampler is not None)):
            raise MeasureError("sum sampler needs a finite lattice law or a tailed "
                               "lattice law with a tail sampler")
        lo = int(m.support[0])
        step = int(np.gcd.reduce(m.support - lo)) or 1
        pmf = np.zeros((int(m.support[-1]) - lo) // step + 1)
        pmf[(m.support - lo) // step] = m.probs
        self.q_tail = 0.0
        if m.has_analytic_tail:
            self.q_tail = m.tail(int(m.support[-1])) * (2.0 if m._mirrored else 1.0)
            pmf /= pmf.sum()
        self._tail_sampler = m._tail_sampler
        k = _stack_height(len(pmf))
        rows = [np.ones(1)]
        for _ in range(1, k):
            rows.append(_convolve(rows[-1], pmf))
        self._step, self._k, self._shift = step, k, k.bit_length() - 1
        self._table = GuideTable(*map(np.cumsum, rows))
        self._offsets = lo * np.arange(k)                 # the sum at index 0, per row
        self._top = (k * lo, _convolve(rows[-1], pmf))   # (offset, pmf) of the last level

    def _grow(self):
        """Stack the next level: the K-th power first, then the square of the last."""
        offset, pmf = self._top
        if len(self._offsets) > self._k:
            offset, pmf = 2 * offset, _convolve(pmf, pmf)
        cs = np.cumsum(pmf)
        lo = int(np.searchsorted(cs, 1e-15))
        hi = int(np.searchsorted(cs, cs[-1] - 1e-15)) + 1
        self._top = (offset + self._step * lo, pmf[lo:hi])
        self._table.append(np.cumsum(self._top[1]))
        self._offsets = np.append(self._offsets, self._top[0])

    def sample(self, counts, rng) -> np.ndarray:
        """Sum of ``counts[i]`` i.i.d. draws for each row ``i``."""
        counts = np.asarray(counts, dtype=np.int64)
        _at_least("counts", counts.min(initial=0), 0)
        return _fill(len(counts), lambda lo, hi: self._row_block_sum(counts[lo:hi], rng))

    def _table_sum(self, counts, rng) -> np.ndarray:
        k, shift = self._k, self._shift
        top = int(counts.max(initial=0))
        least = int(counts.min(initial=top))
        while len(self._offsets) < k + (top >> shift).bit_length():
            self._grow()
        total = np.zeros(len(counts), dtype=np.int64)
        if least == top:            # one count: each table row it uses, for all rows
            small, high = top & (k - 1), top >> shift
            for r in [small] * (small > 0) + [k + j for j in range(high.bit_length())
                                               if high >> j & 1]:
                values = self._table.draw(rng, len(counts), r)
                values *= self._step
                values += self._offsets[r]
                total += values
            return total
        small = counts & (k - 1)
        rows = [np.flatnonzero(small)]
        stack = [small[rows[0]]]
        if top >= k:
            at = np.flatnonzero(counts >= k)
            high = counts[at] >> shift
            for j in range(top.bit_length() - shift):
                lit = at[(high >> j) & 1 == 1]
                if sum(map(len, rows)) + lit.size > _BLOCK_DRAWS:    # a draw holds one block
                    self._add_draws(total, rows, stack, rng)
                rows.append(lit)
                stack.append(np.full(lit.size, k + j))
        self._add_draws(total, rows, stack, rng)
        return total

    def _add_draws(self, total, rows, stack, rng):
        """Add to ``total`` a draw from table row ``stack[i]`` at row
        ``rows[i]``, for the pairs of the two lists of arrays, in order, by one
        search; empties both lists."""
        at, table_rows = np.concatenate(rows), np.concatenate(stack)
        del rows[:], stack[:]
        values = self._table.draw(rng, at.size, table_rows)
        values *= self._step
        values += self._offsets[table_rows]
        np.add.at(total, at, values)

    def _row_block_sum(self, counts, rng) -> np.ndarray:
        tailed = self._tail_draws(counts, rng) if self.q_tail else None
        total = self._table_sum(counts, rng)
        if tailed is not None:
            # every row drew its whole count from the table; the rows with a
            # tail draw their c - Bin(c, q_tail) table draws afresh, so the
            # others keep one count where the block had one
            rows, n_tail, tails = tailed
            total[rows] = self._table_sum(counts[rows] - n_tail, rng) + tails
        return total

    def _tail_draws(self, counts, rng):
        """``(rows, n_tail, tails)``: the rows of a block that hold tail
        draws, how many each and their sum, or None.  The tail draws lie at
        positions ``pos + cumsum(gaps)`` of the block's draws end to end;
        each block of them adds its values to its rows, in order."""
        ends = np.cumsum(counts)
        n = int(ends[-1]) if len(ends) else 0
        rows, n_tail, tails = [], [], []
        pos = -1
        while pos < n - 1:
            mean = self.q_tail * (n - 1 - pos)
            size = min(_BLOCK_DRAWS, int(mean + 5.0 * math.sqrt(mean)) + 16)
            at = pos + np.cumsum(rng.geometric(self.q_tail, size))
            at = at[at < n]
            if at.size:
                row = np.searchsorted(ends, at, side="right")
                first = np.flatnonzero(np.diff(row, prepend=-1))
                rows.append(row[first])
                n_tail.append(np.diff(first, append=at.size))
                tails.append(np.add.reduceat(self._tail_sampler(rng, at.size), first))
                pos = int(at[-1])
            if at.size < size:
                break
        if not rows:
            return None
        # a row split across two blocks of positions appears twice, in order
        rows, n_tail, tails = map(np.concatenate, (rows, n_tail, tails))
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        return rows[first], np.add.reduceat(n_tail, first), np.add.reduceat(tails, first)


# ---------------------------------------------------------------------------
# subordinator increments tau_alpha and the subordinated walk law
# ---------------------------------------------------------------------------

# Stirling-series coefficients B_2n / (2n (2n - 1)), highest order first
_STIRLING = (1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)


def _stirling_sum(z):
    """``sum_n B_2n / (2n (2n - 1) z^(2n - 1))`` for ``z >= 15``, to 1e-16."""
    t = 1.0 / (z * z)
    acc = _STIRLING[0] * t
    for c in _STIRLING[1:-1]:
        acc += c
        acc *= t
    acc += _STIRLING[-1]
    acc /= z
    return acc


def _log_gamma_ratio(shift: float, k, offset: float = 0.0) -> np.ndarray:
    """``lgamma(k + 1 - shift) - lgamma(k + 1) + offset`` for ``0 < shift < 2``.

    The difference of the two large log-gammas is formed from Stirling's
    series with the leading terms cancelled analytically, so the absolute
    error stays near 1e-14 for every ``k`` up to ``2^62`` (against mpmath).
    Subtracting log-gamma values, or scipy's ``betaln`` below ``k = 1e6``,
    loses up to 1e-9 at ``k = 1e6``, and log-gammas alone 25 nats at
    ``k = 4e18``.  Below ``k + 1 = 16`` the series is too short, and the
    difference of ``math.lgamma`` values is taken once per distinct
    argument (at most 15 for integer ``k``); it stays within 1e-14 of
    mpmath there.
    """
    x = np.array(k, dtype=float, ndmin=1) + 1.0
    z = np.maximum(x, 16.0)
    out = np.log1p(-shift / z)
    out *= z - shift - 0.5
    out -= shift * np.log(z)
    out += _stirling_sum(z - shift)
    out -= _stirling_sum(z)
    out += shift + offset
    small = x < 16.0
    if small.any():
        xs, inv = np.unique(x[small], return_inverse=True)
        lg = [math.lgamma(v - shift) - math.lgamma(v) for v in xs.tolist()]
        out[small] = np.array(lg)[inv] + offset
    return out.reshape(np.shape(k))


def _log_tail(alpha: float, k) -> np.ndarray:
    """``log P[T > k] = lgamma(k + 1 - alpha) - lgamma(k + 1) - lgamma(1 - alpha)``,
    through :func:`_log_gamma_ratio`."""
    return _log_gamma_ratio(alpha, k, -math.lgamma(1.0 - alpha))


def subordinator_pmf(alpha: float, k) -> float | np.ndarray:
    """Probability that a tau_alpha increment equals ``k`` (``k >= 1``).

    The mass is ``alpha * Gamma(k - alpha) / (k! * Gamma(1 - alpha))``,
    evaluated as ``(alpha / k) P[T > k - 1]`` through the log tail; it behaves
    like ``alpha / (Gamma(1 - alpha) * k^(1 + alpha))`` for large ``k``.
    """
    if not 0.0 < alpha < 1.0:
        raise MeasureError("alpha must lie in (0, 1)")
    karr = np.asarray(k, dtype=float)
    if np.any(karr < 1):
        raise MeasureError("k must be >= 1")
    out = alpha / karr * np.exp(_log_tail(alpha, karr - 1.0))
    if np.isscalar(k):
        return float(out)
    return out


def subordinator_tail(alpha: float, k) -> float | np.ndarray:
    """``P[T > k]`` for the tau_alpha increment, exactly.

    Telescoping the pmf gives the closed form
    ``Gamma(k + 1 - alpha) / (k! * Gamma(1 - alpha))``, for ``k >= 0``.
    """
    if np.any(np.asarray(k) < 0):
        raise MeasureError("k must be >= 0")
    out = np.exp(_log_tail(alpha, k))
    if np.isscalar(k):
        return float(out)
    return out


def _fill_unresolved(rng, x, t) -> None:
    """Complete, in place, the draws ``t ~ floor(x)`` whose float ``x`` is at
    least 2^53, where ``x`` holds no bits below its spacing: those bits of
    ``t`` are drawn uniformly, so their parity is fair, and a draw at or
    beyond ``SubordinatorAlpha.CAP`` becomes ``CAP`` or ``CAP - 1`` with
    equal chance.  Only those draws take random numbers, so a stream of
    draws below 2^53 is unchanged."""
    big = np.flatnonzero(x >= 2.0 ** 53)
    if big.size:
        xb = x[big]
        fill = rng.integers(0, np.spacing(xb).astype(np.int64))
        tb = xb.astype(np.int64) + fill
        over = xb >= SubordinatorAlpha.CAP
        tb[over] = SubordinatorAlpha.CAP - (fill[over] & 1)
        t[big] = tb


@dataclass
class SubordinatorAlpha:
    """The heavy-tailed renewal-time law driving subordinated walks.

    ``pmf(k) = alpha Gamma(k - alpha) / (k! Gamma(1 - alpha))`` for ``k >= 1``
    (Sibuya's law), with ``tail(k) = P[T > k] = Gamma(k + 1 - alpha) /
    (k! Gamma(1 - alpha))``.  A draw conditioned on ``T > h`` inverts the tail
    at one uniform ``V`` on ``(0, 1]``: ``T = min{k > h : tail(k) <= V tail(h)}``.
    Gautschi's inequality, ``(k + 1)^(-alpha) < Gamma(1 - alpha) tail(k) <
    k^(-alpha)`` for ``k >= 1``, puts ``T`` at ``floor(x)`` or ``floor(x) + 1``
    for ``x = (V tail(h) Gamma(1 - alpha))^(-1/alpha)``, and one comparison of
    log tails picks between them (below ``k = 16`` from a 16-entry table of
    ``sum_j log(1 - alpha / j)``, beyond from Stirling's series).  Each value
    of ``x`` where ``T`` steps lies strictly between two integers (near
    ``k + (1 - alpha) / 2`` for large ``k``), so the rounding of ``x`` does
    not move the pick: draws are exact for ``T`` below 2^40 (checked at 50
    digits), and beyond within the rounding of ``x``; from 2^53 on, where
    ``x`` holds no bits below its spacing, those bits are drawn uniformly
    (:func:`_fill_unresolved`).  Draws are floored at ``h + 1`` and clipped
    at ``CAP`` (``CAP`` or ``CAP - 1``, with equal chance, so their parity
    is fair) after the comparison, to keep downstream integer arithmetic
    exact; the affected mass is of order
    ``CAP^(-alpha) = 2^(-62 alpha)`` per draw (2.5e-6 at ``alpha = 0.3``).
    The clip sits far beyond any reachable walk scale: clipping inside that
    range would give the increments finite variance and turn a transient
    heavy-tailed walk into a diffusive recurrent one.
    """

    alpha: float
    CAP = 1 << 62

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise MeasureError("alpha must lie in (0, 1)")

    def pmf(self, k):
        return subordinator_pmf(self.alpha, k)

    def tail(self, k):
        return subordinator_tail(self.alpha, k)

    def sample(self, rng, size) -> np.ndarray:
        """Exact tau_alpha increments: :meth:`conditional_tail_sample` at 0."""
        return self.conditional_tail_sample(rng, size, 0)

    def conditional_tail_sample(self, rng, size, threshold: int) -> np.ndarray:
        """Draw ``T`` conditioned on ``T > threshold``, exactly: one uniform
        per draw, ``_BLOCK_DRAWS`` at a time."""
        rng = make_rng(rng)
        a, h = self.alpha, int(threshold)
        head = np.append(0.0, np.cumsum(np.log1p(-a / np.arange(1, 16))))

        def log_tails(k):                 # log tail(k) for int64 k >= 0
            out = _log_tail(a, np.maximum(k, 15))
            small = np.flatnonzero(k < 16)
            out[small] = head[k[small]]
            return out

        log_h = log_tails(np.array([h]))[0]
        shift = log_h + math.lgamma(1.0 - a)

        def draw(lo, hi):
            log_w = np.log1p(-rng.random(hi - lo))           # log V, V = 1 - U
            x = np.exp(np.minimum((log_w + shift) / -a, math.log(self.CAP)))
            log_w += log_h                                    # log (V tail(h))
            t = x.astype(np.int64)                            # floor(x)
            t += log_tails(t) > log_w                         # tail(t) > V tail(h)
            _fill_unresolved(rng, x, t)
            np.maximum(t, h + 1, out=t)
            return np.minimum(t, self.CAP, out=t)

        return _fill(int(size), draw)


# ---------------------------------------------------------------------------
# builtin families
# ---------------------------------------------------------------------------

def _lambert_w_lower(z) -> np.ndarray:
    """The lower real branch ``W_-1(z)`` on ``(-1/e, 0)``: ``w e^w = z``, ``w <= -1``.

    Halley steps on ``w e^w - z``, started from the branch-point series
    ``-1 + p - p^2/3 + 11 p^3/72``, ``p = -sqrt(2 (e z + 1))``, where
    ``z < -0.25``, and from the asymptotic form ``L1 - L2 + L2/L1``,
    ``L1 = log(-z)``, ``L2 = log(-L1)``, elsewhere.  A step below ``1e-8``
    relative ends the iteration, as the steps converge cubically.  Near the
    branch point the relative condition number of ``W`` is ``1 / |1 + w|``,
    and the result is within about ``1e-16 / |1 + w|`` relative.
    ``MeasureError`` if the steps have not settled after ``_HALLEY_STEPS``.
    """
    z = np.asarray(z, dtype=float)
    if not np.all((z > -1.0 / math.e) & (z < 0.0)):
        raise MeasureError("lower-branch Lambert W needs -1/e < z < 0")
    p = -np.sqrt(np.maximum(2.0 * (math.e * z + 1.0), 0.0))
    l1 = np.log(-z)
    l2 = np.log(-l1)
    w = np.where(z < -0.25, -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0))),
                 l1 - l2 + l2 / l1)
    for _ in range(_HALLEY_STEPS):
        ew = np.exp(w)
        f = w * ew - z
        step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if np.all(np.abs(step) <= 1e-8 * np.abs(w)):
            return w
    raise MeasureError("lower-branch Lambert W: Halley steps did not settle")


def wiener_hopf_log_tail(cutoff: int = 1_000_000) -> Measure1D:
    """The nonincreasing ladder-height law ``c log(x+2) / (x+2)^(3/2)`` on N_0.

    The normalizing constant has no closed form; it is computed numerically
    from the prefix sum plus the analytic tail integral and recorded in the
    measure metadata.  The measure keeps exact atoms up to ``cutoff`` and an
    analytic (midpoint-rule) tail ``tail(x) = 2c (log u + 2) / sqrt(u)``,
    ``u = x + 5/2``, beyond.  Tail draws invert it in closed form:
    ``tail = v`` at ``u = exp(-2 W_-1(-v / (4 c e)) - 2)`` (lower Lambert-W
    branch), and ``Y = max(cutoff, ceil(u - 5/2))``.  ``u`` is clipped at
    ``2^62`` to stay in int64, a share ``tail(2^62) / tail(cutoff - 1)`` of
    tail draws (1.3e-6 at the default cutoff).
    """
    cutoff = int(cutoff)

    def raw(x):
        # log(x+2) / (x+2)^1.5 by in-place ufuncs on one float copy of x
        x = np.array(x, dtype=float)
        x += 2.0
        out = np.log(x)
        x **= 1.5
        out /= x
        return out

    def raw_tail_integral(x):
        # integral_{x + 1/2}^{inf} log(t+2) (t+2)^(-3/2) dt, closed form
        u = np.asarray(x, dtype=float) + 2.5
        return 2.0 * (np.log(u) + 2.0) / np.sqrt(u)

    probs = raw(np.arange(cutoff))
    c = 1.0 / (probs.sum() + float(raw_tail_integral(cutoff - 1)))
    probs *= c

    def tail_fn(x):
        return c * raw_tail_integral(x)

    def pmf_fn(x):
        return c * raw(x)

    def tail_sampler(rng, n):
        v = np.maximum(rng.random(n) * tail_fn(cutoff - 1), 1e-300)
        w = _lambert_w_lower(-v / (4.0 * c * math.e))
        u = np.minimum(np.exp(-2.0 * w - 2.0), SubordinatorAlpha.CAP)
        return np.maximum(np.ceil(u - 2.5).astype(np.int64), cutoff)

    return Measure1D.lattice_tailed(
        np.arange(cutoff, dtype=np.int64), probs, tail_fn, pmf_fn=pmf_fn,
        tail_sampler=tail_sampler, name=f"wiener_hopf_log_tail(K={cutoff})",
        meta={"normalizing_constant": c, "cutoff": cutoff})


SUBORDINATED_TABLE = 2048    # atoms |k| <= this are tabulated by subordinated()


def subordinated(alpha: float) -> Measure1D:
    """Law of one subordinated-walk increment ``S_T``, the fair +-1 walk at a
    tau_alpha time: symmetric, with tails of order ``k^(-2 alpha)``.

    Its characteristic function ``E cos(theta)^T = 1 - 2^-alpha |1 -
    e^(i theta)|^(2 alpha)`` has the fractional centred differences as Fourier
    coefficients (Ortigueira, Int. J. Math. Math. Sci. 2006): ``P(S = 0) = 1 -
    2^-alpha Gamma(2 alpha + 1) / Gamma(alpha + 1)^2`` and, for ``k >= 1``,
    ``P(S = +-k) = c Gamma(k - alpha) / Gamma(k + alpha + 1)`` with ``c =
    2^-alpha Gamma(2 alpha + 1) sin(pi alpha) / pi``, which telescope to
    ``P(S > k) = (c / (2 alpha)) R(k)``, ``R(k) = Gamma(k + 1 - alpha) /
    Gamma(k + 1 + alpha)``.  Atoms ``|k| <= SUBORDINATED_TABLE`` are tabulated
    by the ratio ``(k - alpha) / (k + alpha + 1)`` of successive atoms; beyond,
    the analytic tail stands on both sides.

    A tail draw takes one uniform: the sign from its half of the unit
    interval, the size ``M = min{k > K : R(k) <= V R(K)}`` from the rest,
    ``V`` on ``(0, 1]``.  Gautschi's inequality for each factor of ``R(k) =
    [Gamma(k + 1 - alpha) / Gamma(k + 1)] [Gamma(k + 1) / Gamma(k + 1 +
    alpha)]`` gives ``k (k + alpha) < R(k)^(-1/alpha) < (k + 1)(k + 1 +
    alpha)``, so ``M`` is ``floor(x)`` or ``floor(x) + 1`` for the root of ``x
    (x + alpha) = (V R(K))^(-1/alpha)``, and one comparison of log ratios
    (:func:`_log_gamma_ratio`, shift ``2 alpha``) picks between them.  The
    step points of ``x`` lie strictly between integers (near ``k + (1 -
    alpha) / 2``), so as for :class:`SubordinatorAlpha` draws are exact below
    about 2^40, and beyond within the rounding of ``x``, their bits below the
    spacing of ``x`` drawn from 2^53 on (:func:`_fill_unresolved`).  They are
    clipped at ``SubordinatorAlpha.CAP``, to ``CAP`` or ``CAP - 1`` with
    equal chance, after the comparison: ``meta["clipped_mass"]``
    is the clipped mass ``2 P(S > CAP)`` per draw (2e-12 at ``alpha = 0.3``,
    0.0125 at 0.05).  ``meta["tail_exponent"]`` is ``2 alpha``, so
    :meth:`Measure1D.mean` is 0 exactly when ``alpha > 1/2``.  No scipy is
    needed: ``math.gamma`` gives the constants, Stirling's series the tail.
    """
    a = float(alpha)
    sub = SubordinatorAlpha(a)
    K, cap = SUBORDINATED_TABLE, SubordinatorAlpha.CAP
    c = 2.0 ** -a * math.gamma(2.0 * a + 1.0) * math.sin(math.pi * a) / math.pi
    side = np.empty(K)                               # P(S = k), k = 1..K
    side[0] = c * math.gamma(1.0 - a) / math.gamma(2.0 + a)
    j = np.arange(1.0, K)
    np.cumprod((j - a) / (j + a + 1.0), out=side[1:])
    side[1:] *= side[0]
    p0 = 1.0 - 2.0 ** -a * math.gamma(2.0 * a + 1.0) / math.gamma(a + 1.0) ** 2

    def log_ratio(k):                                # log R(k)
        return _log_gamma_ratio(2.0 * a, np.asarray(k, dtype=float) + a)

    def tail_fn(x):
        return c / (2.0 * a) * np.exp(log_ratio(x))

    def pmf_fn(x):
        return 2.0 * a / (x + a) * tail_fn(x - 1.0)

    log_rk = float(log_ratio(K))

    def tail_sampler(rng, n):
        def draw(lo, hi):
            u = rng.random(hi - lo)
            up = u >= 0.5
            w = u + u
            w -= up                                   # V = 1 - w on (0, 1]
            log_t = np.log1p(-w)
            log_t += log_rk                           # log (V R(K))
            y = np.exp(np.minimum(log_t / -a, 2.0 * math.log(cap)))
            x = 2.0 * y / (a + np.sqrt(a * a + 4.0 * y))    # x (x + a) = y
            m = x.astype(np.int64)
            m += log_ratio(m) > log_t                  # R(m) > V R(K)
            _fill_unresolved(rng, x, m)
            np.maximum(m, K + 1, out=m)
            np.minimum(m, cap, out=m)
            return np.where(up, m, -m)
        return _fill(int(n), draw)

    return Measure1D.lattice_tailed(
        np.arange(-K, K + 1), np.concatenate([side[::-1], [p0], side]), tail_fn,
        pmf_fn=pmf_fn, tail_sampler=tail_sampler, symmetric=True,
        name=f"subordinated(alpha={alpha})",
        meta={"alpha": alpha, "subordinator": sub, "tail_exponent": 2.0 * a,
              "clipped_mass": 2.0 * float(tail_fn(cap))})


def uniform(a: float = 0.0, b: float = 1.0) -> Measure1D:
    """Uniform law on ``[a, b]``."""
    a, b = float(a), float(b)
    if not b > a:
        raise MeasureError("uniform needs b > a")

    def sampler(rng, size):
        return rng.uniform(a, b, size=size)

    def tail_fn(x):
        return float(np.clip((b - x) / (b - a), 0.0, 1.0))

    return Measure1D.continuous(sampler, tail_fn, bounds=(a, b),
                                symmetric=(abs(a + b) < 1e-15),
                                name=f"uniform({a},{b})")


BUILTIN_FAMILIES = {
    "wiener_hopf_log_tail": wiener_hopf_log_tail,
    "subordinated": subordinated,
    "uniform": uniform,
}


def measure_from_config(cfg) -> Measure1D:
    """Build a one-dimensional measure from a config mapping.

    Accepted forms::

        {"atoms": [[1, 0.5], [2, 0.5]]}
        {"family": "wiener_hopf_log_tail", "cutoff": 1000000}
        {"family": "subordinated", "alpha": 0.5}
        {"family": "uniform", "a": 0.0, "b": 1.0}
    """
    if isinstance(cfg, Measure1D):
        return cfg
    if not isinstance(cfg, dict):
        raise MeasureError(f"measure config must be a mapping, got {type(cfg).__name__}")
    if "atoms" in cfg:
        return Measure1D.lattice(cfg["atoms"])
    if "family" in cfg:
        name = cfg["family"]
        if name not in BUILTIN_FAMILIES:
            raise MeasureError(f"unknown builtin family {name!r}")
        kwargs = {k: v for k, v in cfg.items() if k != "family"}
        unknown = set(kwargs) - set(inspect.signature(BUILTIN_FAMILIES[name]).parameters)
        if unknown:
            raise MeasureError(f"unknown keys {sorted(unknown)} for family {name!r}")
        return BUILTIN_FAMILIES[name](**kwargs)
    raise MeasureError("measure config needs 'atoms' or 'family'")


# ---------------------------------------------------------------------------
# joint measures
# ---------------------------------------------------------------------------

@dataclass
class JointMeasure:
    """An ``(r+s)``-dimensional increment law.

    ``dims = (r1, r2, s1, s2)``: the first ``r1`` coordinates are reflected
    lattice, the next ``r2`` reflected continuous, then ``s1`` free lattice
    and ``s2`` free continuous.  The body is either finite support
    (``points`` with ``probs``) or a product of one-dimensional factors.
    """

    dims: tuple[int, int, int, int]
    points: Optional[np.ndarray] = None
    probs: Optional[np.ndarray] = None
    factors: Optional[list] = None

    @classmethod
    def finite(cls, dims, atoms) -> "JointMeasure":
        """Finite-support joint law from ``[(point, prob)]`` pairs."""
        dims = tuple(int(d) for d in dims)
        pts = np.array([_coords("support point", p, sum(dims)) for p, _ in atoms])
        probs = np.array([float(w) for _, w in atoms])
        return cls(dims, points=pts, probs=probs)

    @classmethod
    def product(cls, dims, factors: Sequence[Measure1D]) -> "JointMeasure":
        return cls(tuple(int(d) for d in dims), factors=list(factors))

    def __post_init__(self):
        r1, r2, s1, s2 = self.dims
        d = r1 + r2 + s1 + s2
        if self.points is not None:
            if self.points.ndim != 2 or self.points.shape[1] != d:
                raise MeasureError(f"support points must have {d} coordinates")
            if not np.all(self.probs >= 0):
                raise MeasureError("probabilities must be nonnegative numbers")
            if not abs(float(self.probs.sum()) - 1.0) <= ATOM_SUM_TOL:
                raise MeasureError(f"probabilities sum to {self.probs.sum()}, not 1")
            for i in self.lattice_coords():
                col = self.points[:, i]
                if np.any(col != np.round(col)):
                    raise MeasureError(f"coordinate {i} declared lattice but has "
                                       f"non-integer support values")
        elif self.factors is not None:
            if len(self.factors) != d:
                raise MeasureError(f"need {d} factors, got {len(self.factors)}")
            for i in self.lattice_coords():
                if not self.factors[i].is_lattice:
                    raise MeasureError(f"coordinate {i} declared lattice but factor "
                                       f"is {self.factors[i].kind}")
        else:
            raise MeasureError("joint measure needs finite support or factors")
        for i in range(r1 + r2):
            if self.factors is not None:
                positive = self.factors[i].is_nontrivial_positive()
            else:       # read off the column: a continuous one has no lattice marginal
                positive = np.any(self.probs[self.points[:, i] > 0] > 0)
            if not positive:
                raise MeasureError(
                    f"reflecting coordinate {i} has no mass on (0, inf)")

    # -- structure ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return sum(self.dims)

    @property
    def n_reflected(self) -> int:
        return self.dims[0] + self.dims[1]

    def lattice_coords(self) -> list[int]:
        r1, r2, s1, s2 = self.dims
        return list(range(r1)) + list(range(r1 + r2, r1 + r2 + s1))

    @property
    def is_finite(self) -> bool:
        return self.points is not None

    # -- operations ---------------------------------------------------------

    def marginal(self, i: int) -> Measure1D:
        """Exact projection onto coordinate ``i`` (0-based)."""
        if not 0 <= i < self.dim:
            raise MeasureError(f"coordinate index {i} out of range for dim {self.dim}")
        if self.factors is not None:
            return self.factors[i]
        col = self.points[:, i]
        if np.any(col != np.round(col)):
            raise MeasureError("marginal with non-integer support points is not "
                               "representable as a lattice law")
        vals = np.unique(col)          # hash-table path; return_inverse would argsort
        which = np.searchsorted(vals, col)
        return Measure1D.lattice_arrays(vals, np.bincount(which, weights=self.probs))

    def sample(self, rng, size: int) -> np.ndarray:
        """``size`` i.i.d. increments as a ``(size, dim)`` array."""
        rng = make_rng(rng)
        n = int(size)
        if self.points is not None:
            return _fill(n, lambda lo, hi: self.points[self._table.draw(rng, hi - lo)])
        out = _empty((n, len(self.factors)))
        for i, f in enumerate(self.factors):        # a factor's blocks, then the next's
            _fill(n, lambda lo, hi: f.sample(rng, hi - lo), out[:, i])
        return out

    @functools.cached_property
    def _table(self) -> GuideTable:              # built on the first draw
        return GuideTable(np.cumsum(self.probs))

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """``(points, probs)``: a finite body as it is, or the ``ij`` grid of a
        product of finite factors."""
        if self.points is not None:
            return self.points, self.probs
        if not all(f.is_lattice and not f.has_analytic_tail for f in self.factors):
            raise MeasureError("support enumeration needs finite factors")
        mesh = np.meshgrid(*[f.support.astype(float) for f in self.factors], indexing="ij")
        probs = functools.reduce(np.multiply.outer, [f.probs for f in self.factors])
        return np.column_stack([m.ravel() for m in mesh]), probs.ravel()

    def is_fully_symmetric(self) -> bool:
        """Invariance under every coordinate sign flip ``x_i -> -x_i``.

        The single flips generate the full sign group, so checking each
        coordinate separately is an exact test.
        """
        if self.factors is not None:
            return all(f.is_symmetric() for f in self.factors)
        table: dict = {}                 # repeated points add their masses
        for pt, p in zip(map(tuple, self.points), self.probs):
            table[pt] = table.get(pt, 0.0) + float(p)
        for i in range(self.dim):
            for pt, p in table.items():
                flipped = list(pt)
                flipped[i] = -flipped[i]
                if abs(table.get(tuple(flipped), 0.0) - p) > ATOM_SUM_TOL:
                    return False
        return True


def joint_from_config(cfg) -> JointMeasure:
    """Build a joint measure from a config mapping.

    Accepted forms::

        {"dims": [r1, r2, s1, s2], "product": [<measure cfg>, ...]}
        {"dims": [r1, r2, s1, s2], "atoms": [[[2, 3], 0.5], [[3, 2], 0.5]]}
        {"dims": [1, 0, 0, 0], "measure": {...}}   # one-dimensional shorthand
    """
    if isinstance(cfg, JointMeasure):
        return cfg
    if "dims" not in cfg:
        raise MeasureError("joint config needs 'dims'")
    dims = tuple(int(d) for d in cfg["dims"])
    if "product" in cfg:
        return JointMeasure.product(dims, [measure_from_config(c) for c in cfg["product"]])
    if "atoms" in cfg:
        return JointMeasure.finite(dims, [(np.asarray(pt, dtype=float), float(p))
                                          for pt, p in cfg["atoms"]])
    if "measure" in cfg:
        return JointMeasure.product(dims, [measure_from_config(cfg["measure"])])
    raise MeasureError("joint config needs 'product', 'atoms' or 'measure'")
