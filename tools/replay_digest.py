"""Digest the outputs of a fixed list of seeded public calls.

Usage, from the root of a checkout::

    python3 tools/replay_digest.py
    python3 tools/replay_digest.py --only simulate --only induced_word
    python3 tools/replay_digest.py --diff HEAD

Each call of :func:`calls` runs once, at small size and from its own fixed
seed, in one process: every walker, sampler and probe of the package, on
each law kind.  Its output is reduced to a canonical text (:func:`canonical`)
and printed as one line, ``name sha256``; a call that raises is digested by
its exception's type and message.  ``--only`` (repeatable) runs the named
calls alone.

``--diff BASE`` exports the committed files of ``BASE`` with ``git archive``
into a temporary directory (``bench_pairs.export_tree``), so the repository
itself is not touched.  It runs the same list on that tree and
on this working tree, each in its own process, prints each call whose
digests differ, then their count, and exits 1 when any differ.
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, export_tree  # noqa: E402  (the tools directory)


def canonical(v) -> str:
    """A text that equal outputs share: arrays by dtype, shape and the digest
    of their bytes, floats by their hex form, dicts and sets in sorted order,
    and other objects by their public fields (functions by name)."""
    if isinstance(v, np.ndarray):
        data = hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()
        return f"array({v.dtype},{v.shape},{data})"
    if isinstance(v, (bool, np.bool_, str, type(None))):
        return repr(v if isinstance(v, (str, type(None))) else bool(v))
    if isinstance(v, (int, np.integer)):
        return repr(int(v))
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    if isinstance(v, dict):
        return "{" + ",".join(sorted(f"{canonical(k)}:{canonical(x)}"
                                     for k, x in v.items())) + "}"
    if isinstance(v, (set, frozenset)):
        return "set[" + ",".join(sorted(map(canonical, v))) + "]"
    if isinstance(v, (list, tuple)):
        return f"{type(v).__name__}[" + ",".join(map(canonical, v)) + "]"
    if callable(v):
        return getattr(v, "__qualname__", type(v).__name__)
    return type(v).__name__ + canonical(
        {k: x for k, x in vars(v).items() if not k.startswith("_")})


def calls(rw) -> dict:
    """``{name: thunk}``: the seeded calls, on the package ``rw``."""
    ms, rc, ex, dg = rw.measures, rw.reflect_core, rw.exact_1d, rw.diagnostics
    g = np.random.default_rng
    pm1 = ms.Measure1D.lattice({-1: 0.5, 1: 0.5})
    pm2 = ms.Measure1D.lattice({-2: 0.25, -1: 0.25, 1: 0.25, 2: 0.25})
    m12 = ms.Measure1D.lattice({1: 0.5, 2: 0.5})
    two_sided = ms.Measure1D.lattice({-1: 0.25, 1: 0.25, 2: 0.5})
    unif = ms.uniform(0, 1)
    plane = ms.JointMeasure.product((2, 0, 0, 0), [m12, m12])
    finite = ms.JointMeasure.finite((2, 0, 0, 0), [((2, 3), 0.5), ((3, 2), 0.5)])
    mixed = ms.JointMeasure.product((1, 1, 0, 0), [m12, unif])
    one = rc.WalkSpec(ms.JointMeasure.product((1, 0, 0, 0), [m12]))
    refl_free = rc.WalkSpec(ms.JointMeasure.product((1, 0, 1, 0), [m12, pm1]))
    nu = ex.invariant_measure_nonneg(m12)
    free_plane = ms.JointMeasure.product((0, 0, 2, 0), [pm1, pm2])
    diagonal = ms.JointMeasure.finite((2, 0, 0, 0), [((a, b), 0.125) for a in (-1, 1)
                                                     for b in (-1, 1)]
                                      + [((2 * a, 0), 0.125) for a in (-1, 1)]
                                      + [((0, 2 * a), 0.125) for a in (-1, 1)])
    return {
        "Measure1D.sample[lattice]": lambda: two_sided.sample(g(1), 5000),
        "Measure1D.sample[subordinated]": lambda: ms.subordinated(0.6).sample(g(2), 5000),
        "Measure1D.sample[subordinated(0.05)]":
            lambda: ms.subordinated(0.05).sample(g(29), 5000),
        "Measure1D.sample[wiener_hopf_log_tail]":
            lambda: ms.wiener_hopf_log_tail(10 ** 4).sample(g(3), 5000),
        "Measure1D.sample[uniform]": lambda: unif.sample(g(4), 5000),
        "JointMeasure.sample[finite]": lambda: finite.sample(g(5), 5000),
        "JointMeasure.sample[product]": lambda: mixed.sample(g(6), 5000),
        "SubordinatorAlpha.sample": lambda: ms.SubordinatorAlpha(0.6).sample(g(7), 5000),
        "SubordinatorAlpha.conditional_tail_sample":
            lambda: ms.SubordinatorAlpha(0.6).conditional_tail_sample(g(8), 5000, 4096),
        "LatticeSumSampler.sample[finite]":
            lambda: ms.LatticeSumSampler(two_sided).sample(np.arange(1, 2001), g(9)),
        "LatticeSumSampler.sample[tailed]": lambda: ms.LatticeSumSampler(
            ms.subordinated(0.6)).sample(np.arange(1, 2001), g(10)),
        "LatticeSumSampler.sample[straddle]": lambda: ms.LatticeSumSampler(pm1).sample(
            np.tile([0, 1, 255, 256, 257, 511, 512, 1000, 4097], 200), g(30)),
        "SubordinatorSumSampler.sample_sum":
            lambda: dg.SubordinatorSumSampler(0.6).sample_sum(300, 2000, g(11)),
        "simulate": lambda: rc.simulate(refl_free, [0, 0], 5000, 12),
        "simulate[continuous]": lambda: rc.simulate(rc.WalkSpec(mixed), [0, 0], 5000, 13),
        "parity_return_times": lambda: rc.parity_return_times(refl_free, [0, 0], 500, 14),
        "induced_word": lambda: rc.induced_word(refl_free, 15),
        "backward_sample": lambda: rc.backward_sample(rc.WalkSpec(plane), [0, 0], 200, 16,
                                                      n_samples=200),
        "contraction_distance_profile": lambda: rc.contraction_distance_profile(
            refl_free, [0, 0], [3, 1], 2000, 17),
        "ladder_monte_carlo": lambda: ex.ladder_monte_carlo(pm1, 2000, g(18),
                                                            step_cap=10_000),
        "symmetric_equivalence_check": lambda: ex.symmetric_equivalence_check(
            pm1, 2000, 0.5, 19, replicas=8),
        "occupation_vs_invariant.counts":
            lambda: dg.occupation_vs_invariant(one, nu, 50_000, 1000, 20)[1],
        "occupation_vs_invariant.tv":
            lambda: dg.occupation_vs_invariant(one, nu, 50_000, 1000, 20)[0],
        "return_time_stats": lambda: dg.return_time_stats(one, [0], ([0], 0), 4000, 4, 21),
        "symmetrization_check[monte_carlo]": lambda: dg.symmetrization_check(
            free_plane, [1, 0], 6, "monte_carlo", 22, samples=20_000),
        "symmetrization_check[exact]": lambda: dg.symmetrization_check(
            free_plane, [1, 2], 5, "exact_enumeration"),
        "cesaro_lower_bound": lambda: dg.cesaro_lower_bound(
            nu, nu, {0, 1}, {0, 1}, rc.WalkSpec(plane), 20_000, 24),
        "reflected_plus_free_experiment": lambda: dg.reflected_plus_free_experiment(
            refl_free, 4000, 4, 25, wald_cycles=2000),
        "product_null_recurrence_probe": lambda: dg.product_null_recurrence_probe(
            [pm1, pm2], [0, 0], [64, 128, 256, 512], 2000, 26),
        "dimension_transience_probe": lambda: dg.dimension_transience_probe(
            ms.JointMeasure.product((2, 0, 0, 0), [pm1, pm1]), 10_000, 16, 27),
        "dimension_transience_probe[product_3d]": lambda: dg.dimension_transience_probe(
            ms.JointMeasure.product((3, 0, 0, 0), [pm1, pm2, pm1]), 10_000, 16, 31),
        "dimension_transience_probe[finite]": lambda: dg.dimension_transience_probe(
            diagonal, 10_000, 16, 32),
        "subordinated_return_exponent": lambda: dg.subordinated_return_exponent(
            0.6, 28, n_max=1024, replicas=5000, chunk=2000),
    }


def digests(tree: Path, names=None) -> dict:
    """``{name: sha256}`` of the calls (``names``, or all) on ``tree``'s package."""
    sys.path.insert(0, str(tree / "src"))
    import reflectwalk
    if Path(reflectwalk.__file__).resolve().parents[1] != (tree / "src").resolve():
        raise RuntimeError(f"reflectwalk imported from {reflectwalk.__file__}, "
                           f"not from {tree}")
    table = calls(reflectwalk)
    out = {}
    for name in names or table:
        try:
            text = canonical(table[name]())
        except Exception as e:           # a refusal is an output like any other
            text = f"raises {type(e).__name__}: {e}"
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


def run_tree(tree: Path, names=None) -> dict:
    """:func:`digests` of ``tree``, computed in a process of its own."""
    only = [a for n in names or () for a in ("--only", n)]
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--tree",
                          str(tree), *only], capture_output=True, text=True, check=True)
    return dict(line.split() for line in out.stdout.splitlines())


def differences(base: dict, change: dict) -> list:
    """``[(name, base digest, change digest)]`` where the two differ; a call
    that one side lacks reads ``None`` there."""
    return [(n, base.get(n), change.get(n)) for n in sorted(set(base) | set(change))
            if base.get(n) != change.get(n)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", action="append", help="repeatable; default every call")
    parser.add_argument("--diff", metavar="BASE", help="compare with this revision")
    parser.add_argument("--tree", type=Path, default=ROOT, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.diff is None:
        for name, digest in digests(args.tree, args.only).items():
            print(name, digest)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        base = run_tree(export_tree(args.diff, Path(tmp) / "base"), args.only)
    change = run_tree(ROOT, args.only)
    diff = differences(base, change)
    for name, b, c in diff:
        print(f"{name}: {args.diff} {b} change {c}")
    print(f"{len(diff)} of {len(set(base) | set(change))} calls differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
