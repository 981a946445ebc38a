"""Increment distributions in one and several dimensions.

A :class:`Measure1D` is either *lattice* (atoms on the integers, optionally
extended by an analytic tail for infinite-support families) or *continuous*
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

    Construct via :meth:`lattice`, :meth:`lattice_tailed`, :meth:`continuous`
    or :meth:`lattice_sampler`.  Instances are immutable after construction
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
        self._sampler = sampler             # full sampler (continuous/backed)
        self.bounds = bounds                # (lo, hi) hints, may be +-inf
        self.normalized = normalized
        self._symmetric = symmetric
        self.name = name
        self.meta = dict(meta or {})
        if kind == "lattice" and support is not None:
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
                       tail_sampler=None, name=None, meta=None) -> "Measure1D":
        """Infinite-support lattice family: exact prefix atoms plus analytic tail.

        ``support`` must be strictly increasing integers (an int64 array is
        kept, not copied); ``tail_fn(x)`` must return the mass strictly above
        ``x`` for every ``x >= support[-1]`` and agree with the implicit prefix
        mass: ``probs.sum() + tail_fn(support[-1]) == 1`` within 1e-9.

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
                   name=name, meta=meta)

    @classmethod
    def continuous(cls, sampler, tail, bounds=None, symmetric=None, name=None,
                   meta=None) -> "Measure1D":
        """Continuous law given by a seeded sampler and its tail function."""
        return cls("continuous", sampler=sampler, tail_fn=tail, bounds=bounds,
                   symmetric=symmetric, name=name, meta=meta)

    @classmethod
    def lattice_sampler(cls, sampler, symmetric=None, mean=None,
                        name=None, meta=None) -> "Measure1D":
        """Integer-valued law available only through its sampler.

        Used for laws without a tractable atom table (e.g. subordinated walk
        increments).  Tail and moment queries raise; symmetry and mean are
        declared by the constructor.
        """
        meta = dict(meta or {})
        if mean is not None:
            meta["declared_mean"] = float(mean)
        return cls("lattice", sampler=sampler, normalized=True,
                   symmetric=symmetric, name=name, meta=meta)

    # -- validation ---------------------------------------------------------

    def _validate(self):
        if self.kind not in ("lattice", "continuous"):
            raise MeasureError(f"unknown kind {self.kind!r}")
        if self.kind == "lattice" and self.support is not None:
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
    def has_atoms(self) -> bool:
        return self.support is not None

    @property
    def has_analytic_tail(self) -> bool:
        return self.is_lattice and self._tail_fn is not None

    def atoms_dict(self) -> dict[int, float]:
        if not self.has_atoms:
            raise MeasureError("measure has no atom table")
        return {int(x): float(p) for x, p in zip(self.support, self.probs)}

    def min_support(self) -> float:
        if self.has_atoms:
            return float(self.support[0])
        if self.bounds is not None:
            return float(self.bounds[0])
        return -math.inf

    def max_support(self) -> float:
        if self.has_atoms and not self.has_analytic_tail:
            return float(self.support[-1])
        if self.kind == "continuous" and self.bounds is not None:
            return float(self.bounds[1])
        return math.inf

    def prob(self, x) -> float:
        """Atom mass at integer ``x`` (lattice only)."""
        if not self.has_atoms:
            raise MeasureError("atom lookup needs an atom table")
        i = np.searchsorted(self.support, int(x))
        if i < len(self.support) and self.support[i] == int(x):
            return float(self.probs[i])
        if self.has_analytic_tail and x > self.support[-1] and self._pmf_fn is not None:
            return float(self._pmf_fn(np.array([x]))[0])
        return 0.0

    def tail(self, x) -> float:
        """Mass strictly above ``x``."""
        if self.kind == "continuous":
            return float(self._tail_fn(x))
        if not self.has_atoms:
            raise MeasureError(f"{self.name or 'sampler-backed measure'} has no tail function")
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
        if self.has_atoms and not self.has_analytic_tail:
            d = self.atoms_dict()
            return all(abs(p - d.get(-x, 0.0)) <= ATOM_SUM_TOL for x, p in d.items())
        return False

    def is_nontrivial_positive(self) -> bool:
        """Whether the law puts positive mass on ``(0, inf)``."""
        if self.is_lattice and not self.has_atoms:
            return True   # sampler-backed integer laws here are symmetric around 0
        return self.tail(0) > 0.0

    # -- sampling -----------------------------------------------------------

    def sample(self, rng, size=None):
        """Draw from the law using ``rng`` (a ``numpy.random.Generator``).

        Draws are made in blocks of ``_BLOCK_DRAWS`` (:func:`_fill`), a
        sampler called once per block.  An analytic-tail law draws and
        inverts its uniforms block by block, then draws every tail value in
        one call, in position order; blocks of uniforms form one stream, so
        its stream is that of one block at any size.
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
        """Signed first moment; a sampler-backed law has only the mean it declares."""
        if self.is_lattice and not self.has_atoms:
            if "declared_mean" not in self.meta:
                raise MeasureError(f"{self.name or 'sampler-backed law'} declares no mean")
            return float(self.meta["declared_mean"])
        pos, neg = self.moment(1.0, "positive"), self.moment(1.0, "negative")
        if math.isinf(pos) and math.isinf(neg):
            raise MeasureError("mean undefined: both tails have infinite mass")
        return pos - neg

    def drift_sign(self) -> int:
        """-1, 0 or 1 as the drift is down, centred or up (:func:`_drift_sign`);
        a sampler-backed law's declared mean stands for both drift moments."""
        if self.is_lattice and not self.has_atoms:
            return _drift_sign(max(self.mean(), 0.0), max(-self.mean(), 0.0))
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
        each block beyond the table is one :func:`_series_block_sum`.
        """
        if p < 0:
            raise MeasureError("moment order must be nonnegative")
        if part not in ("full", "positive", "negative"):
            raise MeasureError(f"unknown moment part {part!r}")
        if self.kind == "continuous":
            return self._moment_continuous(p, part)
        if not self.has_atoms:
            raise MeasureError("moment of a sampler-backed law is not available")
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
        if not self.has_analytic_tail or part == "negative":
            return finite_part
        return finite_part + self._tail_block_series(p)

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
        if not self.has_atoms:
            raise MeasureError("tail block sums need an atom table")
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
        if self.has_atoms and len(self.support) <= 6 and not self.has_analytic_tail:
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
    ends = np.geomspace(float(lo), float(hi), max(1, math.ceil(math.log2(hi / lo))) + 1)
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
    if not m.is_lattice or not m.has_atoms:
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
    """``np.searchsorted(cdf, u, side="right")``: the package's one cdf inversion.

    Up to ``SHORT`` entries, a count of the entries at or below ``u``; beyond,
    Chen and Asau's guide table (Devroye, *Non-Uniform Random Variate
    Generation*, 1986, section III.2.4): ``[cdf[0], cdf[-1]]`` is cut into
    ``len(cdf)`` equal buckets, and bucket ``b`` stores the number of
    entries whose own bucket lies below ``b``.  The bucket map is monotone in
    floating point too, so every such entry is below every ``u`` in bucket
    ``b``: the stored count is a lower bound of the answer, whatever the
    rounding, and a search steps forward from it.  Values not settled after
    ``STEPS`` steps (buckets holding many entries) fall back to
    ``np.searchsorted``, so the result equals it bit for bit for every ``u``.
    ``cdf`` is any nondecreasing array.
    """

    SHORT = 16
    STEPS = 4

    def __init__(self, cdf):
        padded = np.append(np.asarray(cdf, dtype=float), np.inf)
        self.cdf = padded[:-1]
        self._padded = padded                  # the sentinel stops every step
        span = self.cdf[-1] - self.cdf[0]
        self._scale = len(self.cdf) / span if span > 0 else 0.0
        self._guide = np.searchsorted(self._bucket(self.cdf), np.arange(len(self.cdf)))

    def _bucket(self, u):
        return np.clip((u - self.cdf[0]) * self._scale, 0, len(self.cdf) - 1).astype(np.intp)

    @staticmethod
    def _count(u, cdf) -> np.ndarray:
        idx = np.zeros(u.shape, dtype=np.uint8)     # intp out: callers add offsets
        for c in cdf.tolist():
            idx += (u >= c).view(np.uint8)
        return idx.astype(np.intp)

    def search(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if len(self.cdf) <= self.SHORT:
            return self._count(u, self.cdf)
        i = self._guide[self._bucket(u)]
        todo = np.nonzero(self._padded[i] <= u)[0]
        for _ in range(self.STEPS):
            if todo.size == 0:
                return i
            i[todo] += 1
            todo = todo[self._padded[i[todo]] <= u[todo]]
        i[todo] = np.searchsorted(self.cdf, u[todo], side="right")
        return i

    def draw(self, rng, n: int) -> np.ndarray:
        """``n`` indices by inversion, capped at the last one (``u`` may round up)."""
        u = rng.random(n) * self.cdf[-1]
        if len(self.cdf) <= self.SHORT:
            return self._count(u, self.cdf[:-1])
        return np.minimum(self.search(u), len(self.cdf) - 1)


class LatticeSumSampler:
    """Sums of many i.i.d. draws from a finite lattice law.

    Level ``j`` holds the law of a sum of ``2^j`` draws as an offset and a
    cdf: the convolution square of level ``j - 1`` by a real FFT padded to a
    power of two, trimmed at mass 1e-15 per side.  A sum of ``c`` draws
    takes one table draw per binary digit of ``c``, inverted through the
    level's :class:`GuideTable`.  Levels are built on demand, up to the
    largest count asked for, so a sampler belongs to its caller rather than
    to the shared measure.
    """

    def __init__(self, m: Measure1D):
        if not (m.is_lattice and m.has_atoms and not m.has_analytic_tail):
            raise MeasureError("sum sampler needs a finite lattice law")
        lo = int(m.support[0])
        pmf = np.zeros(int(m.support[-1]) - lo + 1)
        pmf[m.support - lo] = m.probs
        self._top = pmf                       # pmf of the last level
        self._levels = [(lo, GuideTable(np.cumsum(pmf)))]  # (offset, table) per level

    def _grow(self):
        n = 2 * len(self._top) - 1
        size = 1 << (n - 1).bit_length()     # pocketfft is slow at awkward lengths
        nxt = np.fft.irfft(np.fft.rfft(self._top, size) ** 2, size)[:n]
        np.maximum(nxt, 0.0, out=nxt)
        cs = np.cumsum(nxt)
        lo = int(np.searchsorted(cs, 1e-15))
        hi = int(np.searchsorted(cs, cs[-1] - 1e-15)) + 1
        self._top = nxt[lo:hi]
        self._levels.append((2 * self._levels[-1][0] + lo,
                             GuideTable(np.cumsum(self._top))))

    def sample(self, counts, rng) -> np.ndarray:
        """Sum of ``counts[i]`` i.i.d. draws for each row ``i``."""
        counts = np.asarray(counts, dtype=np.int64)
        _at_least("counts", counts.min(initial=0), 0)
        while int(counts.max(initial=0)) >> len(self._levels):
            self._grow()
        out = np.zeros(len(counts), dtype=np.int64)
        for j, (offset, table) in enumerate(self._levels):
            mask = (counts >> j) & 1 == 1
            out[mask] += offset + table.draw(rng, int(np.count_nonzero(mask)))
        return out


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


def _log_tail(alpha: float, k) -> np.ndarray:
    """``log P[T > k] = lgamma(k + 1 - alpha) - lgamma(k + 1) - lgamma(1 - alpha)``.

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
    out = np.log1p(-alpha / z)
    out *= z - alpha - 0.5
    out -= alpha * np.log(z)
    out += _stirling_sum(z - alpha)
    out -= _stirling_sum(z)
    out += alpha - math.lgamma(1.0 - alpha)
    small = x < 16.0
    if small.any():
        xs, inv = np.unique(x[small], return_inverse=True)
        lg = [math.lgamma(v - alpha) - math.lgamma(v) for v in xs.tolist()]
        out[small] = np.array(lg)[inv] - math.lgamma(1.0 - alpha)
    return out.reshape(np.shape(k))


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


@dataclass
class SubordinatorAlpha:
    """The heavy-tailed renewal-time law driving subordinated walks.

    ``pmf(k) = alpha Gamma(k - alpha) / (k! Gamma(1 - alpha))`` for ``k >= 1``
    (Sibuya's law), a Beta-mixed geometric: ``P[T > k] = E (1 - B)^k`` with
    ``B ~ Beta(alpha, 1 - alpha)``, and given ``T > h``, ``T - h`` is
    geometric given ``B' ~ Beta(alpha, 1 - alpha + h)``.  So every draw is
    exact: one Beta and one geometric draw.  ``B`` is floored at ``1 / CAP``
    (a Beta draw can be 0.0) and draws are clipped at ``CAP`` to keep
    downstream integer arithmetic exact; the affected mass is of order
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

    def _mixing(self, rng, size, threshold: int = 0) -> np.ndarray:
        """Success probabilities ``B ~ Beta(alpha, 1 - alpha + threshold)``."""
        b = rng.beta(self.alpha, 1.0 - self.alpha + threshold, int(size))
        return np.maximum(b, 1.0 / self.CAP)

    def sample(self, rng, size) -> np.ndarray:
        """Exact tau_alpha increments: :meth:`conditional_tail_sample` at 0."""
        return self.conditional_tail_sample(rng, size, 0)

    def conditional_tail_sample(self, rng, size, threshold: int) -> np.ndarray:
        """Draw ``T`` conditioned on ``T > threshold``, exactly: per block of
        ``_BLOCK_DRAWS``, the Beta draws and then the geometric ones."""
        rng = make_rng(rng)
        h = int(threshold)
        return _fill(int(size), lambda lo, hi: h + np.minimum(
            rng.geometric(self._mixing(rng, hi - lo, h)), self.CAP - h))


def subordinated_increment_sampler(alpha: float, rng, size=None):
    """One increment ``S_T`` of the subordinated +-1 walk, drawn without ``T``.

    Given the mixing variable ``B`` of :class:`SubordinatorAlpha`, ``S_T`` has
    pgf ``B phi / (1 - (1 - B) phi)``, ``phi`` the pgf of one fair step.  That
    is ``phi`` times the pgf of ``G - G'`` for ``G, G'`` i.i.d. geometric on
    ``{0, 1, ...}`` with success probability ``p = (B + r) / (1 + r)``,
    ``r = sqrt(B (2 - B))``: one fair step plus ``G - G'``, where
    ``|G - G'| = floor(log(U (1 + q) / 2) / log q)``, ``U`` uniform on ``(0, 1]``,
    inverts ``P(|G - G'| >= k) = 2 q^k / (1 + q)`` (``k >= 1``, ``q = 1 - p``);
    one draw in ``{0, 1, 2, 3}`` gives the step and the sign.  The floor
    ``B >= 1 / CAP`` keeps ``p > 2^-31``, so ``|G - G'|`` stays far inside int64.
    """
    rng = make_rng(rng)
    scalar = size is None
    n = 1 if scalar else int(np.prod(size))
    p = SubordinatorAlpha(alpha)._mixing(rng, n)        # B, until p replaces it
    r = np.sqrt(p * (2.0 - p))
    p = (p + r) / (r + 1.0)
    k = np.log((1.0 - rng.random(n)) * (1.0 - 0.5 * p))     # log(U (1 + q) / 2)
    with np.errstate(divide="ignore"):        # B = 1: p = 1 and log q = -inf
        k /= np.log1p(np.negative(p, out=p), out=p)
    out = np.floor(k, out=k).astype(np.int64)
    signs = rng.integers(0, 4, n, dtype=np.int8)
    np.negative(out, out=out, where=signs >= 2)
    out += 2 * (signs & 1) - 1
    if scalar:
        return int(out[0])
    return out.reshape(size)


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


def subordinated(alpha: float) -> Measure1D:
    """Law of one subordinated-walk increment (symmetric, heavy-tailed).

    Sampler-backed: atoms are not tabulated.  Symmetric by construction; mean 0
    is declared where ``E|Y|`` is finite (``alpha > 1/2``), none elsewhere.
    """
    return Measure1D.lattice_sampler(
        functools.partial(subordinated_increment_sampler, alpha), symmetric=True,
        mean=0.0 if alpha > 0.5 else None, name=f"subordinated(alpha={alpha})",
        meta={"alpha": alpha, "subordinator": SubordinatorAlpha(alpha)})


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
        pts = np.array([np.atleast_1d(np.asarray(p, dtype=float)) for p, _ in atoms])
        probs = np.array([float(w) for _, w in atoms])
        return cls(tuple(int(d) for d in dims), points=pts, probs=probs)

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
        if not all(f.has_atoms and not f.has_analytic_tail for f in self.factors):
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
