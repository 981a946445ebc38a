"""Parity algebra and communicating-class structure of lattice reflected walks.

On lattice coordinates the step ``x -> |x - y|`` changes the state parity by
the parity of ``y``, so the mod-2 images of the increment support generate a
subgroup ``Gamma`` of the parity hypercube whose cosets split the state space
into non-communicating parts.  Within each part the closed communicating
classes are computed by reachability over a finite window, with an exact
certificate whenever the orbit space is provably bounded.

The module also builds the constructive witness that the induced
parity-return system admits arbitrarily good approximations of a constant
map: Euclidean-algorithm compositions of the reflection maps that pin down
long initial segments to ``{0, 1}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exact_1d import _window_successors
from .measures import JointMeasure, Measure1D, MeasureError, _at_least
from .reflect_core import ContractionWord, _parity_codes

__all__ = [
    "ParityDecomposition", "EssentialClassReport", "ConstantMapWitness",
    "AttractorDescription", "parity_group", "hypercube_chain",
    "essential_classes", "constant_map_witness", "attractor_1d",
]


# ---------------------------------------------------------------------------
# parity group and cosets
# ---------------------------------------------------------------------------

@dataclass
class ParityDecomposition:
    """The parity subgroup of ``{0,1}^r1`` generated by the increment support.

    ``cosets[j]`` lists the parity vectors of coset ``j`` in tuple order;
    coset 0 is the group itself and the others follow in the order of their
    least members.  ``coset_of`` maps a parity vector to its coset index.
    ``exponent`` is ``d`` with ``2^d`` cosets, so ``|Gamma| * 2^d = 2^r1``.
    """

    r1: int
    generators: np.ndarray          # (g, r1) 0/1 rows
    group: np.ndarray               # (|Gamma|, r1) all elements, in tuple order
    cosets: list                    # list of (|Gamma|, r1) arrays
    _coset_index: np.ndarray = field(repr=False)   # parity code -> coset

    @property
    def exponent(self) -> int:
        return self.n_cosets.bit_length() - 1

    @property
    def n_cosets(self) -> int:
        return len(self.cosets)

    def coset_of(self, eps) -> int:
        return int(self._coset_index[_parity_codes(eps, self.r1)])


def _bit_rows(codes: np.ndarray, r1: int) -> np.ndarray:
    """0/1 rows of parity codes, coordinate 0 the highest bit."""
    return ((codes[:, None] >> np.arange(r1 - 1, -1, -1)) & 1).astype(np.uint8)


def _parity_generators(j: JointMeasure) -> np.ndarray:
    """Ascending parity codes of the support points."""
    r1 = j.dims[0]
    if r1 < 1:
        raise MeasureError("parity structure needs at least one lattice "
                           "reflecting coordinate")
    if j.is_finite:
        return np.unique(_parity_codes(j.points, r1))
    codes = np.zeros(1, dtype=np.int64)
    for i in range(r1):
        f = j.factors[i]
        par = (set((f.support & 1).tolist()) if not f.has_analytic_tail
               else {0, 1})     # tailed laws: full parity support
        codes = (2 * codes[:, None] + np.array(sorted(par))).ravel()
    return codes


def parity_group(j: JointMeasure) -> ParityDecomposition:
    """Group generated by the parity images of the support, with its cosets."""
    gens = _parity_generators(j)
    if not gens.any():
        raise MeasureError("all parity images are zero, which contradicts "
                           "gcd-normalization of the lattice marginals")
    r1 = j.dims[0]
    group = np.zeros(1, dtype=np.int64)        # XOR closure of the generator codes
    for g in gens:
        group = np.union1d(group, group ^ g)
    # scanning codes in order meets each coset first at its least member c,
    # and XOR with c keeps the group's ascending order
    coset_index = np.full(1 << r1, -1)
    cosets = []
    for c in range(1 << r1):
        if coset_index[c] < 0:
            members = group ^ c
            coset_index[members] = len(cosets)
            cosets.append(_bit_rows(members, r1))
    return ParityDecomposition(r1=r1, generators=_bit_rows(gens, r1),
                               group=_bit_rows(group, r1), cosets=cosets,
                               _coset_index=coset_index)


def hypercube_chain(j: JointMeasure):
    """Transition kernel of the parity process on ``{0,1}^r1``.

    Returns ``(kernel, parity_pmf, decomposition)`` where
    ``kernel[e, f] = parity_pmf(f XOR e)``; the uniform law on each coset is
    stationary because the kernel is translation invariant and symmetric.
    Kernel and pmf index a parity vector by the code with coordinate ``i``
    as bit ``i`` (the reverse of the decomposition's tuple order).
    """
    r1 = j.dims[0]
    dec = parity_group(j)
    if j.is_finite:
        pmf = np.zeros(1 << r1)
        np.add.at(pmf, _parity_codes(j.points[:, r1 - 1::-1], r1), j.probs)
    else:
        odd = np.empty(r1)
        for i in range(r1):
            f = j.factors[i]
            if f.has_analytic_tail:
                raise MeasureError("parity kernel needs finite factor atoms")
            odd[i] = f.probs[(f.support & 1) == 1].sum()
        bits = (np.arange(1 << r1) >> np.arange(r1)[:, None]) & 1    # [i, code]
        pmf = np.where(bits, odd[:, None], 1.0 - odd[:, None]).prod(axis=0)
    codes = np.arange(1 << r1)
    return pmf[codes[:, None] ^ codes], pmf, dec


# ---------------------------------------------------------------------------
# essential classes over a window
# ---------------------------------------------------------------------------

@dataclass
class EssentialClassReport:
    """One closed communicating class of the windowed reachability graph.

    ``certificate`` is ``exact_bounded`` when the orbit space is provably
    contained in the box ``[0, N_i]`` per coordinate (all supports
    nonnegative), in which case the class list is exact within the window.
    Otherwise it is ``windowed``: membership is asserted only inside
    ``[0, window]`` although reachability paths may use the margin strip.
    ``transient_classes`` lists the non-closed communicating classes found in
    the same coset of the certified region.
    """

    coset_index: int
    window: int
    members: list
    certificate: str
    margin: int = field(default=0, compare=False)
    transient_classes: list = field(default_factory=list)

    def member_set(self) -> set:
        return {tuple(m) for m in self.members}


def essential_classes(j: JointMeasure, window: int) -> list[EssentialClassReport]:
    """Closed communicating classes of the lattice reflected walk.

    Builds the graph of ``x -> |x - y|`` over the certified region from the
    successor table ``exact_1d._window_successors``, computes strongly
    connected components and reports the closed ones per parity coset.  The
    certified region is ``prod [0, N_i]`` (exact, closed under the walk
    whatever the window) when every support coordinate is nonnegative with
    maximum ``N_i``, else ``prod [0, window + margin]``; either way members
    are reported in ``[0, window]``.

    Mutual reachability between window states can require excursions far
    above the window (climbing happens along the axes, descending through
    the interior), so small margins under-certify.  The margin starts at the
    least ``4 * 2^k`` that holds every jump and doubles until the report
    stabilizes; each report records it.  A report that stabilizes is evidence,
    not a proof: ``{(7,8): .5, (2,-1): .5}`` at window 4 settles at margin 8
    with 16 members and 9 window states marked transient, while margins 16
    and up, and window 6, put every window state in one closed class.  A
    report still changing at the cap ``4 (window + 16)`` raises
    ``MeasureError``: enlarge the window, as does a jump (nonnegative laws
    too) beyond every margin up to the cap.
    A coset whose certified core holds no essential states yields no report
    (for example when every jump dwarfs the window, so nothing ever returns
    to it): enlarge the window.
    """
    window = _at_least("window", window, 0)
    r, r2 = j.dims[:2]
    if r2 != 0:
        raise MeasureError("essential classes are computed for purely lattice "
                           "reflection")
    try:
        pts, _ = j.atoms()
    except MeasureError as e:
        raise MeasureError("essential classes need finite support") from e
    supp = np.unique(np.asarray(np.round(pts[:, :r]), dtype=np.int64), axis=0)
    dec = parity_group(j)
    need = int(np.abs(supp).max())
    m, cap = 4, 4 * (window + 16)
    while window + m < need:
        if m >= cap:
            raise MeasureError(f"window {window}+{m} cannot contain the one-step "
                               f"image of itself (needs at least {need})")
        m *= 2
    if (supp >= 0).all():
        return _closed_classes(supp, dec, window, supp.max(axis=0), 0)
    reports = None
    while True:
        cur = _closed_classes(supp, dec, window, np.full(r, window + m), m)
        if cur == reports:
            return cur
        if m >= cap:
            raise MeasureError(f"the classes over window {window} still changed at "
                               f"margin {m}, the cap: enlarge the window")
        reports, m = cur, 2 * m


def _closed_classes(supp: np.ndarray, dec: ParityDecomposition, window: int,
                    box: np.ndarray, margin: int) -> list[EssentialClassReport]:
    """Closed classes of ``x -> |x - y|`` over ``prod [0, box_i]``.

    ``margin`` 0 marks the exact box ``prod [0, N_i]``; a positive margin
    marks the windowed box, with membership asserted in ``[0, window]``.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
    coords, succs = _window_successors(supp, box)
    edge = succs >= 0                                  # [support row, node]
    graph = csr_matrix((np.ones(edge.sum()), (np.nonzero(edge)[1], succs[edge])),
                       shape=(len(coords),) * 2)
    n_comp, labels = connected_components(graph, directed=True, connection="strong")

    # closure is asserted for the certified region only: every state of the
    # exact box, or every core member of a windowed one, must map into its
    # component (margin members may leak, that is what the windowed
    # certificate concedes)
    in_core = (coords <= np.minimum(box, window)).all(axis=1)
    checked = in_core if margin else True
    leaks = checked & ((succs < 0) | (labels[succs] != labels)).any(axis=0)
    closed = np.ones(n_comp, dtype=bool)
    closed[labels[leaks]] = False

    # core members of each component, in node (= lexicographic) order
    core = np.nonzero(in_core)[0]
    core = core[np.argsort(labels[core], kind="stable")]
    certificate = "windowed" if margin else "exact_bounded"
    reports = []
    transient_by_coset: dict[int, list] = {}
    for group in np.split(core, np.nonzero(np.diff(labels[core]))[0] + 1):
        members = list(map(tuple, coords[group].tolist()))
        cid = dec.coset_of(coords[group[0]] & 1)       # no edge leaves a coset
        if closed[labels[group[0]]]:
            reports.append(EssentialClassReport(
                coset_index=cid, window=window, members=members,
                certificate=certificate, margin=margin))
        else:
            transient_by_coset.setdefault(cid, []).append(members)
    for rep in reports:
        rep.transient_classes = sorted(transient_by_coset.get(rep.coset_index, []))
    reports.sort(key=lambda rep: (rep.coset_index, -len(rep.members), rep.members))
    return reports


# ---------------------------------------------------------------------------
# constant-map witness
# ---------------------------------------------------------------------------

@dataclass
class ConstantMapWitness:
    """Constructive witness that parity-preserving compositions pin states down.

    ``generators`` are positive integers with gcd 1 realised as words over
    the support; ``euclid_words[k]`` agrees with ``x -> |x - d_k|`` on
    ``{0..d_k}`` where ``d_k`` is the running gcd; ``parity_map`` is the
    square of the last one and preserves parity while contracting
    ``{0..2k-1}`` onto ``{0, 1}`` after ``k`` iterations.
    """

    generators: list
    generator_words: list           # ContractionWord per generator
    gcd_chain: list
    euclid_words: list              # ContractionWord g_0..g_m
    parity_map: ContractionWord     # h = g_m^2
    verified_k: int
    table: np.ndarray               # table[k', x] = h^k'(x) on 0..2k-1
    checks_passed: bool


def constant_map_witness(m: Measure1D, verified_range: int = 50) -> ConstantMapWitness:
    """Build and verify the parity-preserving contraction words.

    Stage one lifts negative support elements ``a`` to
    ``a' = a + (floor(-a/b) + 1) b`` using the smallest positive support
    element ``b`` (the identity ``f_{a'} = f_b^q o f_a`` holds on the half
    line), producing positive generators with gcd 1.  Stage two runs the
    Euclidean algorithm on the running gcds, composing words so that word
    ``k`` acts like reflection at ``d_k`` on ``{0..d_k}``.  Stage three
    squares the final word and verifies the full parity table exactly.
    """
    if not (m.is_lattice and not m.has_analytic_tail):
        raise MeasureError("witness construction needs a finite lattice law")
    if not m.normalized:
        raise MeasureError("support gcd must be 1")
    supp = [int(x) for x in m.support]
    positives = [x for x in supp if x > 0]
    if not positives:
        raise MeasureError("no positive support element")
    b = min(positives)

    word_of: dict[int, ContractionWord] = {}     # generator: word realising it
    for a in supp:
        if a != 0:                      # a negative a is lifted by q letters b
            q = 0 if a > 0 else (-a) // b + 1
            letters = np.array([a] + [b] * q, dtype=np.int64)
            word_of.setdefault(a + q * b, ContractionWord(letters))

    ys_all = sorted(word_of)
    # drop generators that do not refine the running gcd; dchain: running gcds
    ys: list[int] = []
    dchain: list[int] = []
    g = 0
    for y in ys_all:
        if math.gcd(g, y) < g or g == 0:
            g = math.gcd(g, y)
            ys.append(y)
            dchain.append(g)
    if g != 1:
        raise MeasureError(f"support gcd is {g}, not 1")

    euclid: list[ContractionWord] = [word_of[ys[0]]]
    for k in range(1, len(ys)):
        r_prev, r_cur = ys[k], dchain[k - 1]
        h_prev, h_cur = word_of[ys[k]], euclid[k - 1]
        while True:
            q, rem = divmod(r_prev, r_cur)
            if rem == 0:
                break                               # r_cur == d_k
            h_next = h_prev.then(h_cur.power(q))    # h_cur^q after h_prev
            h_prev, h_cur = h_cur, h_next
            r_prev, r_cur = r_cur, rem
        g_k = h_cur
        pts = np.arange(0, dchain[k] + 1, dtype=np.int64)
        got = g_k.evaluate(pts)
        want = np.abs(pts - dchain[k])
        if not np.array_equal(got, want):
            raise MeasureError("Euclidean composition failed its exact check "
                               f"at stage {k}: {got} vs {want}")
        euclid.append(g_k)

    g_final = euclid[-1]
    h = g_final.then(g_final)
    k = _at_least("verified_range", verified_range, 0)
    top = 2 * k - 1
    domain_top = max(top, max(abs(x) for x in supp), b)
    base = np.arange(0, domain_top + 1, dtype=np.int64)
    h_table = h.evaluate(base)
    if int(h_table.max()) > domain_top:
        raise MeasureError("parity map escaped its evaluation window")
    table = np.empty((k + 1, top + 1), dtype=np.int64)
    table[0] = base[:top + 1]
    cur = base.copy()
    ok = True
    for kk in range(1, k + 1):
        cur = h_table[cur]
        table[kk] = cur[:top + 1]
        ns = np.arange(1, kk + 1)
        if not (np.all(table[kk][2 * ns - 1] == 1)
                and np.all(table[kk][2 * ns - 2] == 0)):
            ok = False
    if not np.array_equal(h_table[base[:top + 1]] & 1, base[:top + 1] & 1):
        ok = False  # parity must be preserved pointwise
    return ConstantMapWitness(
        generators=ys, generator_words=[word_of[y] for y in ys],
        gcd_chain=dchain, euclid_words=euclid, parity_map=h,
        verified_k=k, table=table, checks_passed=bool(ok))


# ---------------------------------------------------------------------------
# one-dimensional attractor
# ---------------------------------------------------------------------------

@dataclass
class AttractorDescription:
    """The minimal closed invariant set of the one-dimensional walk."""

    lattice: bool
    upper: float                     # sup of the attractor (inf if unbounded)

    def points(self) -> np.ndarray:
        if not self.lattice or not math.isfinite(self.upper):
            raise MeasureError("point enumeration needs a bounded lattice attractor")
        return np.arange(0, int(self.upper) + 1, dtype=np.int64)


def attractor_1d(m: Measure1D) -> AttractorDescription:
    """``[0, N]`` when the support is nonnegative with supremum ``N``, else all
    of the half line."""
    if not m.is_nontrivial_positive():
        raise MeasureError("law must charge (0, inf)")
    if m.min_support() >= 0 and math.isfinite(m.max_support()):
        return AttractorDescription(lattice=m.is_lattice, upper=float(m.max_support()))
    return AttractorDescription(lattice=m.is_lattice, upper=math.inf)
