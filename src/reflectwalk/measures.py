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
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import integrate
from scipy.signal import fftconvolve
from scipy.special import gammaln, lambertw

from .rng import make_rng

ATOM_SUM_TOL = 1e-12
TAILED_SUM_TOL = 1e-9

# Dyadic-block divergence test: a fractional-moment series is declared
# divergent when this many consecutive block ratios fail to drop below
# the decay threshold.
DIVERGENCE_BLOCKS = 20
DIVERGENCE_DECAY = 0.95
_TERMWISE_MAX = 1 << 12  # blocks up to this many points are summed term by term
_MAX_BLOCK_EXP = 64


class MeasureError(ValueError):
    """Raised for malformed measures or operations they do not support."""


# ---------------------------------------------------------------------------
# one-dimensional measures
# ---------------------------------------------------------------------------

class Measure1D:
    """A one-dimensional increment law.

    Construct via :meth:`lattice`, :meth:`lattice_tailed`, :meth:`continuous`
    or :meth:`lattice_sampler`.  Instances are immutable after construction
    and safe to share across threads; all sampling goes through an explicit
    generator owned by the caller.
    """

    def __init__(self, kind, support=None, probs=None, tail_fn=None,
                 pmf_fn=None, tail_sampler=None, sampler=None, density=None,
                 bounds=None, normalized=False, symmetric=None, name=None,
                 meta=None):
        self.kind = kind                    # "lattice" | "continuous"
        self.support = support              # sorted int64 array (lattice)
        self.probs = probs                  # float64 array matching support
        self._tail_fn = tail_fn             # analytic x -> mass((x, inf))
        self._pmf_fn = pmf_fn               # analytic pmf beyond the table
        self._tail_sampler = tail_sampler   # conditional sampler beyond table
        self._sampler = sampler             # full sampler (continuous/backed)
        self.density = density
        self.bounds = bounds                # (lo, hi) hints, may be +-inf
        self.normalized = normalized
        self._symmetric = symmetric
        self.name = name
        self.meta = dict(meta or {})
        if kind == "lattice" and support is not None:
            # mass strictly above support[i], excluding the analytic tail
            self._suffix = np.concatenate([np.cumsum(probs[::-1])[::-1][1:], [0.0]])
        else:
            self._suffix = None
        self._validate()

    # -- constructors -------------------------------------------------------

    @classmethod
    def lattice(cls, atoms, name=None, symmetric=None) -> "Measure1D":
        """Finite lattice law from ``{point: prob}`` or ``[(point, prob)]``."""
        if isinstance(atoms, dict):
            items = sorted(atoms.items())
        else:
            items = sorted((int(x), float(p)) for x, p in atoms)
        if not items:
            raise MeasureError("empty support")
        merged: dict[int, float] = {}
        for x, p in items:
            if x != int(x):
                raise MeasureError(f"non-integer lattice atom {x!r}")
            merged[int(x)] = merged.get(int(x), 0.0) + float(p)
        support = np.array(sorted(merged), dtype=np.int64)
        probs = np.array([merged[x] for x in sorted(merged)], dtype=float)
        keep = probs > 0.0
        if not keep.any():
            raise MeasureError("all atom probabilities are zero")
        support, probs = support[keep], probs[keep]
        g = 0
        for x in support:
            g = math.gcd(g, abs(int(x)))
        return cls("lattice", support=support, probs=probs,
                   normalized=(g == 1), symmetric=symmetric, name=name)

    @classmethod
    def lattice_arrays(cls, support, probs, name=None, symmetric=None) -> "Measure1D":
        """Finite lattice law from parallel arrays (fast path for big supports)."""
        support = np.asarray(support, dtype=np.int64)
        probs = np.asarray(probs, dtype=float)
        order = np.argsort(support)
        support, probs = support[order], probs[order]
        if len(np.unique(support)) != len(support):
            raise MeasureError("duplicate support points")
        keep = probs > 0.0
        support, probs = support[keep], probs[keep]
        if len(support) == 0:
            raise MeasureError("empty support")
        g = int(np.gcd.reduce(np.abs(support))) if len(support) else 0
        return cls("lattice", support=support, probs=probs,
                   normalized=(g == 1), symmetric=symmetric, name=name)

    @classmethod
    def lattice_tailed(cls, support, probs, tail_fn, pmf_fn=None,
                       tail_sampler=None, name=None, meta=None) -> "Measure1D":
        """Infinite-support lattice family: exact prefix atoms plus analytic tail.

        ``support`` must be contiguous integers; ``tail_fn(x)`` must return the
        mass strictly above ``x`` for every ``x >= support[-1]`` and agree with
        the implicit prefix mass: ``probs.sum() + tail_fn(support[-1]) == 1``
        within 1e-9.
        """
        support = np.asarray(support, dtype=np.int64)
        probs = np.asarray(probs, dtype=float)
        return cls("lattice", support=support, probs=probs, tail_fn=tail_fn,
                   pmf_fn=pmf_fn, tail_sampler=tail_sampler, normalized=True,
                   name=name, meta=meta)

    @classmethod
    def continuous(cls, sampler, tail, density=None, bounds=None,
                   symmetric=None, name=None, meta=None) -> "Measure1D":
        """Continuous law given by a seeded sampler and its tail function."""
        return cls("continuous", sampler=sampler, tail_fn=tail, density=density,
                   bounds=bounds, symmetric=symmetric, name=name, meta=meta)

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
            if np.any(self.probs < 0):
                raise MeasureError("negative atom probability")
            total = float(self.probs.sum())
            if self._tail_fn is None:
                if abs(total - 1.0) > ATOM_SUM_TOL:
                    raise MeasureError(f"atom probabilities sum to {total}, not 1")
            else:
                tail_mass = float(self._tail_fn(int(self.support[-1])))
                if abs(total + tail_mass - 1.0) > TAILED_SUM_TOL:
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
        if self.has_atoms:
            mass = float(self.probs[self.support > 0].sum())
            if self.has_analytic_tail:
                mass += float(self._tail_fn(int(self.support[-1])))
            return mass > 0.0
        if self.kind == "continuous":
            return self.tail(0.0) > 0.0
        # sampler-backed integer laws in this package are symmetric around 0
        return True

    # -- sampling -----------------------------------------------------------

    def sample(self, rng, size=None):
        """Draw from the law using ``rng`` (a ``numpy.random.Generator``)."""
        rng = make_rng(rng)
        if self._sampler is not None:
            return self._sampler(rng, size)
        n = 1 if size is None else int(np.prod(size))
        if self.has_analytic_tail:
            u = rng.random(n)
            out = np.empty(n, dtype=np.int64)
            in_table = u < self._table.cdf[-1]
            out[in_table] = self.support[self._table.search(u[in_table])]
            n_tail = int((~in_table).sum())
            if n_tail:
                if self._tail_sampler is None:
                    raise MeasureError("analytic-tail family lacks a tail sampler")
                out[~in_table] = self._tail_sampler(rng, n_tail)
        else:
            out = self.support[self._table.draw(rng, n)]
        if size is None:
            return int(out[0])
        return out.reshape(size)

    @functools.cached_property
    def _table(self) -> GuideTable:              # built on the first draw
        return GuideTable(np.cumsum(self.probs))

    # -- moments ------------------------------------------------------------

    def mean(self) -> float:
        """Signed first moment; honours a declared mean for sampler-backed laws."""
        if "declared_mean" in self.meta:
            return float(self.meta["declared_mean"])
        pos = self.moment(1.0, "positive")
        neg = self.moment(1.0, "negative")
        if math.isinf(pos) and math.isinf(neg):
            raise MeasureError("mean undefined: both tails have infinite mass")
        return pos - neg

    def moment(self, p: float, part: str = "full") -> float:
        """``E|Y|^p``, ``E (Y^+)^p`` or ``E (Y^-)^p``; ``inf`` when divergent.

        Divergence on infinite-support families is decided by the dyadic-block
        test: the series is declared divergent when the block sums over
        ``[2^m, 2^(m+1))`` fail to decay geometrically (ratio above
        ``DIVERGENCE_DECAY``) for ``DIVERGENCE_BLOCKS`` consecutive blocks.
        """
        if p < 0:
            raise MeasureError("moment order must be nonnegative")
        if part not in ("full", "positive", "negative"):
            raise MeasureError(f"unknown moment part {part!r}")
        if self.kind == "continuous":
            return self._moment_continuous(p, part)
        if not self.has_atoms:
            raise MeasureError("moment of a sampler-backed law is not available")
        xs = self.support.astype(float)
        if part == "positive":
            vals = np.where(xs > 0, xs, 0.0)
        elif part == "negative":
            vals = np.where(xs < 0, -xs, 0.0)
        else:
            vals = np.abs(xs)
        finite_part = float(np.dot(vals ** p, self.probs))
        if not self.has_analytic_tail:
            return finite_part
        if part == "negative":
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
        total, prev, fail_run = 0.0, None, 0
        for lo, hi in zip(edges[:-1], edges[1:]):
            b = _series_block_sum(lambda x: x ** p * self._pmf_fn(x), lo, hi)
            if prev is not None and prev > 0:
                fail_run = fail_run + 1 if b / prev > DIVERGENCE_DECAY else 0
                if fail_run >= DIVERGENCE_BLOCKS:
                    return math.inf
            total += b
            if 0 < b < 1e-16 * max(total, 1e-300):
                break
            prev = b
        return total

    def tail_block_sums(self, edges, power: int):
        """Yield ``sum_{x=e_j}^{e_(j+1)-1} tail(x)**power`` for consecutive ``edges``.

        Every block is an exact sum.  The tail is constant between atoms, so
        one pass over the atom table gives every block's table part: each
        piece adds ``length * value**power`` to its block, with no running
        sums.  Beyond the table of an analytic-tail family a block goes through
        :func:`_series_block_sum` only when the caller asks for it.
        """
        if not self.has_atoms:
            raise MeasureError("tail block sums need an atom table")
        s = self.support
        top = int(s[-1])
        extra = float(self._tail_fn(top)) if self.has_analytic_tail else 0.0
        # tail on [s[i-1], s[i]) is values[i]; values[0] holds below s[0]
        values = np.concatenate([[float(self.probs.sum())], self._suffix]) + extra
        cut = np.array([min(int(e), top) for e in edges], dtype=np.int64)
        i0 = int(np.searchsorted(s, cut[0], side="right"))
        i1 = int(np.searchsorted(s, cut[-1], side="left"))
        inner = s[i0:i1]
        # merge the sorted atoms and edges by slot; an edge goes after an equal atom
        atom_at = np.arange(len(inner)) + np.searchsorted(cut, inner)
        edge_at = np.arange(len(cut)) + np.searchsorted(inner, cut, side="right")
        points = np.empty(len(inner) + len(cut), dtype=np.int64)
        level = np.empty(len(points))
        points[atom_at], level[atom_at] = inner, values[i0 + 1:i1 + 1]
        points[edge_at], level[edge_at] = cut, values[np.searchsorted(s, cut, "right")]
        table = np.add.reduceat(np.diff(points) * level[:-1] ** power, edge_at[:-1])

        for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            total = float(table[j])
            if self.has_analytic_tail and hi > top:
                total += _series_block_sum(lambda x: self._tail_fn(x) ** power,
                                           max(int(lo), top), int(hi))
            yield total

    def _moment_continuous(self, p: float, part: str) -> float:
        lo = self.min_support()
        hi = self.max_support()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise MeasureError("continuous moments need finite support bounds")
        if self.density is not None:
            def g(x):
                if part == "positive":
                    v = max(x, 0.0)
                elif part == "negative":
                    v = max(-x, 0.0)
                else:
                    v = abs(x)
                return v ** p * self.density(x)
            val, _ = integrate.quad(g, lo, hi, limit=200)
            return float(val)
        # fall back to the tail representation E (Y^+)^p = int p x^(p-1) tail(x) dx
        if part == "negative":
            val, _ = integrate.quad(
                lambda x: p * x ** (p - 1) * max(0.0, 1.0 - self.tail(-x)), 0.0,
                max(-lo, 0.0) or 1.0, limit=200)
            return float(val)
        val, _ = integrate.quad(lambda x: p * x ** (p - 1) * self.tail(x),
                                0.0, max(hi, 0.0) or 1.0, limit=200)
        if part == "full" and lo < 0:
            low, _ = integrate.quad(
                lambda x: p * x ** (p - 1) * max(0.0, 1.0 - self.tail(-x)), 0.0,
                -lo, limit=200)
            val += low
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
    term; the rest by Euler-Maclaurin: the integral (``quad`` to 1e-13
    relative) plus ``(g(lo) - g(hi))/2 + (g'(hi) - g'(lo))/12``, ``g'`` by
    central differences.  With ``lo >= _TERMWISE_MAX`` the first omitted term
    is of relative order ``lo**-4`` for the power-like tails summed here.
    """
    if hi - lo <= _TERMWISE_MAX:
        return float(np.sum(g(np.arange(lo, hi, dtype=float))))
    if lo < _TERMWISE_MAX:
        return (_series_block_sum(g, lo, _TERMWISE_MAX)
                + _series_block_sum(g, _TERMWISE_MAX, hi))
    integral, _ = integrate.quad(lambda t: float(g(np.array([t]))[0]), lo, hi,
                                 epsabs=0.0, epsrel=1e-13, limit=200)
    at_lo, at_hi, lo_minus, lo_plus, hi_minus, hi_plus = g(np.array(
        [lo, hi, lo - 0.5, lo + 0.5, hi - 0.5, hi + 0.5], dtype=float))
    slope_change = (hi_plus - hi_minus) - (lo_plus - lo_minus)
    return float(integral + (at_lo - at_hi) / 2.0 + slope_change / 12.0)


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
    g = 0
    for x in m.support:
        g = math.gcd(g, abs(int(x)))
    if g == 0:
        raise MeasureError("degenerate support {0}")
    if g == 1:
        if m.normalized:
            return m, 1
        out = Measure1D.lattice(m.atoms_dict(), name=m.name)
        return out, 1
    atoms = {int(x) // g: float(p) for x, p in zip(m.support, m.probs)}
    return Measure1D.lattice(atoms, name=m.name), g


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
    cdf: an FFT convolution square of level ``j - 1``, trimmed at mass 1e-15
    per side.  A sum of ``c`` draws takes one table draw per binary digit of
    ``c``, inverted through the level's :class:`GuideTable`.  Levels are
    built on demand, up to the largest count asked for, so a sampler belongs
    to its caller rather than to the shared measure.
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
        nxt = fftconvolve(self._top, self._top)
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
    Subtracting ``gammaln`` values, or scipy's ``betaln`` below ``k = 1e6``,
    loses up to 1e-9 at ``k = 1e6``, and ``gammaln`` alone 25 nats at
    ``k = 4e18``.  Small ``k`` take the plain ``gammaln`` difference, which is
    exact to rounding there.
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
        xs = x[small]
        out[small] = gammaln(xs - alpha) - gammaln(xs) - math.lgamma(1.0 - alpha)
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
    ``Gamma(k + 1 - alpha) / (k! * Gamma(1 - alpha))``.
    """
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
        """Exact tau_alpha increments, one Beta and one geometric draw each."""
        rng = make_rng(rng)
        return np.minimum(rng.geometric(self._mixing(rng, size)), self.CAP)

    def conditional_tail_sample(self, rng, size, threshold: int) -> np.ndarray:
        """Draw ``T`` conditioned on ``T > threshold``, exactly."""
        rng = make_rng(rng)
        h = int(threshold)
        return h + np.minimum(rng.geometric(self._mixing(rng, size, h)), self.CAP - h)


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
    xs = np.arange(cutoff, dtype=float)

    def raw(x):
        return np.log(x + 2.0) / (x + 2.0) ** 1.5

    def raw_tail_integral(x):
        # integral_{x + 1/2}^{inf} log(t+2) (t+2)^(-3/2) dt, closed form
        u = np.asarray(x, dtype=float) + 2.5
        return 2.0 * (np.log(u) + 2.0) / np.sqrt(u)

    prefix = raw(xs)
    c = 1.0 / (prefix.sum() + float(raw_tail_integral(cutoff - 1)))
    probs = c * prefix

    def tail_fn(x):
        return c * raw_tail_integral(x)

    def pmf_fn(x):
        return c * raw(np.asarray(x, dtype=float))

    def tail_sampler(rng, n):
        v = np.maximum(rng.random(n) * tail_fn(cutoff - 1), 1e-300)
        w = lambertw(-v / (4.0 * c * math.e), -1).real
        u = np.minimum(np.exp(-2.0 * w - 2.0), SubordinatorAlpha.CAP)
        return np.maximum(np.ceil(u - 2.5).astype(np.int64), cutoff)

    return Measure1D.lattice_tailed(
        np.arange(cutoff, dtype=np.int64), probs, tail_fn, pmf_fn=pmf_fn,
        tail_sampler=tail_sampler, name=f"wiener_hopf_log_tail(K={cutoff})",
        meta={"normalizing_constant": c, "cutoff": cutoff})


def subordinated(alpha: float) -> Measure1D:
    """Law of one subordinated-walk increment (symmetric, heavy-tailed).

    Sampler-backed: atoms are not tabulated.  Symmetric by construction and
    centred whenever the first absolute moment is finite (``alpha > 1/2``).
    """
    return Measure1D.lattice_sampler(
        functools.partial(subordinated_increment_sampler, alpha), symmetric=True,
        mean=0.0, name=f"subordinated(alpha={alpha})",
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

    def density(x):
        return 1.0 / (b - a) if a <= x <= b else 0.0

    return Measure1D.continuous(sampler, tail_fn, density=density, bounds=(a, b),
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
        return Measure1D.lattice([(int(x), float(p)) for x, p in cfg["atoms"]])
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
            if np.any(self.probs < 0):
                raise MeasureError("negative probability")
            if abs(float(self.probs.sum()) - 1.0) > ATOM_SUM_TOL:
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
            if not self.marginal(i).is_nontrivial_positive():
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
        acc: dict[int, float] = {}
        for x, p in zip(col, self.probs):
            acc[int(round(x))] = acc.get(int(round(x)), 0.0) + float(p)
        return Measure1D.lattice(acc)

    def sample(self, rng, size: int) -> np.ndarray:
        """``size`` i.i.d. increments as a ``(size, dim)`` array."""
        rng = make_rng(rng)
        n = int(size)
        if self.points is not None:
            return self.points[self._table.draw(rng, n)]
        cols = [np.asarray(f.sample(rng, n), dtype=float) for f in self.factors]
        return np.column_stack(cols)

    @functools.cached_property
    def _table(self) -> GuideTable:              # built on the first draw
        return GuideTable(np.cumsum(self.probs))

    def support_points(self) -> np.ndarray:
        """All support points (finite bodies; product bodies with finite factors)."""
        if self.points is not None:
            return self.points
        grids = []
        for f in self.factors:
            if not (f.has_atoms and not f.has_analytic_tail):
                raise MeasureError("support enumeration needs finite factors")
            grids.append(f.support.astype(float))
        mesh = np.meshgrid(*grids, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    def is_fully_symmetric(self) -> bool:
        """Invariance under every coordinate sign flip ``x_i -> -x_i``.

        The single flips generate the full sign group, so checking each
        coordinate separately is an exact test.
        """
        if self.factors is not None:
            return all(f.is_symmetric() for f in self.factors)
        table = {tuple(pt): float(p) for pt, p in
                 zip(map(tuple, self.points), self.probs)}
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
